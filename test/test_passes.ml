(* Differential oracle suite for the nanopass pipeline: every prefix of
   every default plan must stay statevector-equivalent to the source
   program on a small corpus (CCX network, QFT-4, random 2Q/3Q qcheck
   circuits, a Pauli program); plus pass reordering (peephole on either
   side of compact) and a deliberately-broken pass the oracle must
   catch. *)

open Numerics
open Compiler

let seed = 20260809L

(* corpus: small structured circuits (shapes shared with test_compiler) *)
let toffoli_chain =
  Circuit.create 4
    [
      Gate.h 0;
      Gate.ccx 0 1 2;
      Gate.cx 2 3;
      Gate.ccx 1 2 3;
      Gate.x 1;
      Gate.ccx 0 1 2;
    ]

let qft4 =
  let gates = ref [] in
  let n = 4 in
  for i = 0 to n - 1 do
    gates := Gate.h i :: !gates;
    for j = i + 1 to n - 1 do
      gates := Gate.cphase j i (Float.pi /. (2.0 ** float_of_int (j - i))) :: !gates
    done
  done;
  Circuit.create n (List.rev !gates)

let pauli_prog =
  {
    Phoenix.n = 3;
    terms =
      [
        { Phoenix.pauli = Quantum.Pauli.of_string "ZZI"; angle = 0.7 };
        { Phoenix.pauli = Quantum.Pauli.of_string "IZZ"; angle = 0.4 };
        { Phoenix.pauli = Quantum.Pauli.of_string "ZZI"; angle = -0.2 };
        { Phoenix.pauli = Quantum.Pauli.of_string "XIX"; angle = 0.9 };
      ];
  }

let random_circuit seed =
  let rng = Rng.create seed in
  let n = 3 + (Int64.to_int seed mod 2) in
  let gates =
    List.init 8 (fun _ ->
        let a = Rng.int rng n in
        let b = (a + 1 + Rng.int rng (n - 1)) mod n in
        match Rng.int rng 5 with
        | 0 -> Gate.h a
        | 1 -> Gate.t a
        | 2 -> Gate.cx a b
        | 3 -> Gate.rz a 0.37
        | _ ->
          let c = (b + 1 + Rng.int rng (n - 2)) mod n in
          let c = if c = a || c = b then (max a (max b c) + 1) mod n else c in
          if c = a || c = b then Gate.cx a b else Gate.ccx a b c)
  in
  Circuit.create n gates

let corpus =
  [
    ("toffoli_chain", Pass.Gates toffoli_chain);
    ("qft4", Pass.Gates qft4);
    ("pauli", Pass.Pauli pauli_prog);
  ]

let check_ok what = function
  | Ok (Pass.Checked | Pass.Skipped _) -> ()
  | Error msg -> Alcotest.failf "%s: oracle rejected: %s" what msg

(* run a plan pass by pass, checking the per-pass oracle against the
   source after every prefix — the differential harness of the issue *)
let run_prefix_oracle ~plan_name plan source =
  let ctx = Pass.make_ctx (Rng.create seed) in
  let reference = Pass.Source source in
  let final =
    List.fold_left
      (fun ir (p : Pass.t) ->
        let ir', (stat : Passes.pass_stat) = Passes.run_pass ctx ir p in
        if stat.Passes.ran then
          check_ok
            (Printf.sprintf "%s prefix ..%s" plan_name p.Pass.name)
            (Pass.check_equiv p.Pass.oracle ~reference ~candidate:ir');
        ir')
      reference plan.Passes.passes
  in
  match Passes.output_of_ir ctx final with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "%s: no output: %s" plan_name (Robust.Err.to_string e)

let test_prefix_oracle () =
  List.iter
    (fun mode ->
      let plan = Passes.plan_of_mode mode in
      List.iter
        (fun (name, source) ->
          run_prefix_oracle
            ~plan_name:(Printf.sprintf "%s/%s" plan.Passes.plan_name name)
            plan source)
        corpus)
    [ Passes.Eff; Passes.Full; Passes.Nc ]

(* the new peephole pass must fuse the commuting ZZ sandwich that
   fuse_2q alone cannot (an interposed gate on a shared wire) *)
let test_peephole_fuses_commuting () =
  let c =
    Circuit.create 3 [ Gate.rzz 0 1 0.3; Gate.rzz 1 2 0.5; Gate.rzz 0 1 0.4 ]
  in
  let out = Peephole.run c in
  Alcotest.(check bool)
    "peephole reduced the sandwich" true
    (Circuit.count_2q out < Circuit.count_2q c);
  check_ok "peephole semantics"
    (Pass.check_equiv Pass.default_oracle ~reference:(Pass.Su4 c)
       ~candidate:(Pass.Su4 out))

(* peephole must leave non-commuting interposers alone *)
let test_peephole_respects_noncommuting () =
  let c =
    Circuit.create 3 [ Gate.rzz 0 1 0.3; Gate.cx 1 2; Gate.h 1; Gate.rzz 0 1 0.4 ]
  in
  let out = Peephole.run c in
  check_ok "peephole non-commuting semantics"
    (Pass.check_equiv Pass.default_oracle ~reference:(Pass.Su4 c)
       ~candidate:(Pass.Su4 out))

(* reordering: peephole before or after compact — both legal plans, both
   oracle-clean (the point of passes being first-class values) *)
let test_reordering () =
  List.iter
    (fun names ->
      match Passes.of_names ~name:"reorder" names with
      | Error e -> Alcotest.failf "of_names: %s" (Robust.Err.to_string e)
      | Ok plan ->
        run_prefix_oracle
          ~plan_name:(String.concat "," names)
          plan (Pass.Gates toffoli_chain))
    [
      [ "lower_3q"; "template"; "peephole"; "compact"; "mirroring" ];
      [ "lower_3q"; "template"; "compact"; "peephole"; "mirroring" ];
    ]

(* a deliberately broken pass (drops the last 2Q gate): the oracle must
   catch it — this is the negative control for the whole harness *)
let broken_pass =
  {
    Pass.name = "broken_drop";
    doc = "negative control: silently drops the last 2Q gate";
    applies = (function Pass.Su4 _ -> true | _ -> false);
    oracle = Pass.default_oracle;
    run =
      (fun _ctx -> function
        | Pass.Su4 c ->
          let rec drop_last = function
            | [] -> []
            | [ (g : Gate.t) ] -> if Gate.is_2q g then [] else [ g ]
            | g :: rest -> g :: drop_last rest
          in
          Pass.Su4 (Circuit.create c.Circuit.n (drop_last c.Circuit.gates))
        | ir -> ir);
  }

let test_broken_pass_caught () =
  let plan =
    { Passes.plan_name = "broken"; passes = [ Passes.lower_3q; Passes.template; broken_pass ] }
  in
  let ctx = Pass.make_ctx (Rng.create seed) in
  match Passes.run_plan ctx plan (Pass.Source (Pass.Gates qft4)) with
  | Error e -> Alcotest.failf "run_plan: %s" (Robust.Err.to_string e)
  | Ok (ir, _) -> (
    match
      Pass.check_equiv broken_pass.Pass.oracle
        ~reference:(Pass.Source (Pass.Gates qft4)) ~candidate:ir
    with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "oracle accepted a gate-dropping pass")

(* slicing: stop_after leaves the named pass's IR form; unknown names in
   any position are typed errors naming the registry *)
let test_slicing () =
  let ctx = Pass.make_ctx (Rng.create seed) in
  let plan = Passes.plan_of_mode Passes.Eff in
  (match
     Passes.run_plan ~stop_after:"template" ctx plan
       (Pass.Source (Pass.Gates toffoli_chain))
   with
  | Ok (Pass.Su4 c, stats) ->
    Alcotest.(check bool)
      "su4+1q only" true
      (List.for_all (fun (g : Gate.t) -> Gate.arity g <= 2) c.Circuit.gates);
    Alcotest.(check int) "two executed stats" 2
      (List.length (List.filter (fun (s : Passes.pass_stat) -> s.Passes.ran) stats))
  | Ok (ir, _) -> Alcotest.failf "expected su4 IR, got %s" (Pass.ir_form ir)
  | Error e -> Alcotest.failf "run_plan: %s" (Robust.Err.to_string e));
  (match Passes.run_plan ~start_from:"nope" ctx plan (Pass.Source (Pass.Gates qft4)) with
  | Error e ->
    let msg = Robust.Err.to_string e in
    let contains sub =
      let ls = String.length msg and lb = String.length sub in
      let rec go i = i + lb <= ls && (String.sub msg i lb = sub || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "start_from error names the registry" true
      (List.for_all contains Passes.known_names)
  | Ok _ -> Alcotest.fail "start_from accepted an unknown pass");
  match Passes.of_names [ "lower_3q"; "wat" ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "of_names accepted an unknown pass"

(* the facade's raising entry points run exactly the default plans, for
   both program kinds, and every pass a default plan executes shows as
   its own stage="compiler" span in a recorded trace *)
let test_plan_matches_facade () =
  let same what (facade : Reqisc.compiled) (plan : Passes.output) =
    Alcotest.(check int)
      (what ^ " same 2q count")
      (Circuit.count_2q facade.Reqisc.circuit)
      (Circuit.count_2q plan.Passes.circuit);
    Alcotest.(check (array int))
      (what ^ " same mapping") facade.Reqisc.final_mapping plan.Passes.final_mapping
  in
  List.iter
    (fun mode ->
      let plan = Passes.plan_of_mode mode in
      let (out_plan, stats), recorder =
        Obs.Recorder.with_recorder (fun () ->
            Expect.ok (Passes.compile_plan ~plan (Rng.create 7L) (Pass.Gates toffoli_chain)))
      in
      let spans =
        List.filter_map
          (fun (e : Obs.Sink.span_event) ->
            if e.Obs.Sink.stage = "compiler" then Some e.Obs.Sink.name else None)
          (Obs.Recorder.events recorder)
      in
      let executed = List.filter (fun (s : Passes.pass_stat) -> s.Passes.ran) stats in
      Alcotest.(check bool) "some pass executed" true (executed <> []);
      List.iter
        (fun (s : Passes.pass_stat) ->
          Alcotest.(check bool) (s.Passes.pass ^ " has its own span") true
            (List.mem s.Passes.pass spans))
        executed;
      same "gates" (Expect.ok (Reqisc.compile ~mode (Rng.create 7L) toffoli_chain)) out_plan;
      let pauli_plan, _ =
        Expect.ok (Passes.compile_plan ~plan (Rng.create 7L) (Pass.Pauli pauli_prog))
      in
      same "pauli" (Expect.ok (Reqisc.compile_pauli ~mode (Rng.create 7L) pauli_prog)) pauli_plan)
    [ Passes.Eff; Passes.Full ]

(* Compiled gates pinned by the MD5 of every gate's qubits and float
   bits, and the synthesis search pinned by its [compiler.synth] restart
   and sweep totals. The synthesis sweep behind template and hierarchical
   synthesis may be rewritten for speed only if the gates and restarts
   stay bit-identical; a shorter search shows as a lower [sweeps] total,
   re-recorded on purpose. tof_5 under nc compiles to the same gates as
   under full (so does every suite program), but hierarchical_nc reaches
   them by a shorter search, which the totals tell apart. rip_add_2 under
   eff is the first program whose gates move if [Synth]'s relative stall
   bar is raised. *)
let gate_digest (gates : Gate.t list) =
  let b = Buffer.create 4096 in
  List.iter
    (fun (g : Gate.t) ->
      Array.iter (fun q -> Buffer.add_string b (string_of_int q ^ ",")) g.qubits;
      for i = 0 to Mat.rows g.mat - 1 do
        for j = 0 to Mat.cols g.mat - 1 do
          Printf.bprintf b "%Lx,%Lx,"
            (Int64.bits_of_float (Mat.get_re g.mat i j))
            (Int64.bits_of_float (Mat.get_im g.mat i j))
        done
      done;
      Buffer.add_char b ';')
    gates;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* (program, mode, digest, restarts, sweeps) *)
let golden =
  [
    ("tof_5", Passes.Full, "93b03ff61b97b0963bdfd545ef72625c", 108, 1869);
    ("tof_5", Passes.Nc, "93b03ff61b97b0963bdfd545ef72625c", 56, 993);
    ("mult_2", Passes.Full, "764a923dd1846b6c936927dc168bf3ca", 58, 1037);
    ("encoding_3", Passes.Full, "074d0ab7938a9bf77f47f91ce2262e1f", 89, 1565);
    ("alu_1", Passes.Eff, "7d07358c4c10e05d55f6523d966f4282", 54, 1670);
    ("rip_add_2", Passes.Eff, "3350c277769660645874f51255aa86ec", 78, 1560);
  ]

let synth name = Robust.Counters.get ~stage:"compiler.synth" name

let golden_digest name mode =
  let _, _, digest, _, _ = List.find (fun (n, m, _, _, _) -> n = name && m = mode) golden in
  digest

let suite_program name =
  (List.find (fun (b : Benchmarks.Suite.bench) -> b.name = name) (Benchmarks.Suite.suite ()))
    .program

let compile_default mode name =
  Expect.ok
    (Passes.compile_plan ~plan:(Passes.plan_of_mode mode) (Rng.create 1L) (suite_program name))

let compile_digest mode name =
  gate_digest (fst (compile_default mode name)).Passes.circuit.Circuit.gates

(* one case per row, so a change reports every row it moves; each starts
   from an empty search memo, so its totals are those of a cold search *)
let golden_cases =
  List.map
    (fun (name, mode, digest, restarts, sweeps) ->
      let label = Printf.sprintf "%s/%s" name (Passes.plan_of_mode mode).Passes.plan_name in
      Alcotest.test_case label `Quick (fun () ->
          Robust.Fault.configure None;
          Synth.memo_clear ();
          let r0 = synth "restarts" and s0 = synth "sweeps" in
          Alcotest.(check string) label digest (compile_digest mode name);
          Alcotest.(check int) (label ^ " restarts") restarts (synth "restarts" - r0);
          Alcotest.(check int) (label ^ " sweeps") sweeps (synth "sweeps" - s0)))
    golden

(* ------------------------------------------------------- search memo *)

(* A warm repeat of a compile runs no search: every search of the cold
   compile is answered from the memo, and the gates are the same bits *)
let test_memo_warm_repeat () =
  Robust.Fault.configure None;
  Synth.memo_clear ();
  let m0 = synth "memo_miss" in
  let cold = compile_digest Passes.Full "tof_5" in
  let misses = synth "memo_miss" - m0 in
  let h1 = synth "memo_hit" and m1 = synth "memo_miss" in
  let r1 = synth "restarts" and s1 = synth "sweeps" in
  let warm = compile_digest Passes.Full "tof_5" in
  Alcotest.(check string) "cold digest" (golden_digest "tof_5" Passes.Full) cold;
  Alcotest.(check string) "warm digest" cold warm;
  Alcotest.(check bool) "cold compile searched" true (misses > 0);
  Alcotest.(check int) "warm hits = cold misses" misses (synth "memo_hit" - h1);
  Alcotest.(check int) "warm misses" 0 (synth "memo_miss" - m1);
  Alcotest.(check int) "warm restarts" 0 (synth "restarts" - r1);
  Alcotest.(check int) "warm sweeps" 0 (synth "sweeps" - s1)

(* a memo warmed by one plan answers another plan's searches with the bits
   that plan's own cold searches give *)
let test_memo_cross_plan () =
  Robust.Fault.configure None;
  Synth.memo_clear ();
  let cold_nc = compile_digest Passes.Nc "tof_5" in
  Synth.memo_clear ();
  ignore (compile_digest Passes.Full "tof_5");
  let h0 = synth "memo_hit" in
  let warm_nc = compile_digest Passes.Nc "tof_5" in
  Alcotest.(check string) "cold nc digest" (golden_digest "tof_5" Passes.Nc) cold_nc;
  Alcotest.(check string) "nc after full" cold_nc warm_nc;
  Alcotest.(check bool) "nc hits what full searched" true (synth "memo_hit" - h0 > 0)

(* two domains compiling at once, each missing or hitting as the other
   fills the memo, produce the cold bytes *)
let test_memo_two_domains () =
  Robust.Fault.configure None;
  Synth.memo_clear ();
  let d = Array.init 2 (fun _ -> Domain.spawn (fun () -> compile_digest Passes.Full "tof_5")) in
  let digests = Array.map Domain.join d in
  Array.iteri
    (fun i got ->
      Alcotest.(check string) (Printf.sprintf "domain %d" i) (golden_digest "tof_5" Passes.Full) got)
    digests

(* ------------------------------------------------- carried KAKs *)

let decompositions () = Robust.Counters.get ~stage:"weyl" "decompose"

let bits_of_float b x = Printf.bprintf b "%Lx," (Int64.bits_of_float x)

let bits_of_mat b m =
  for i = 0 to Mat.rows m - 1 do
    for j = 0 to Mat.cols m - 1 do
      bits_of_float b (Mat.get_re m i j);
      bits_of_float b (Mat.get_im m i j)
    done
  done

let mat_bits m =
  let b = Buffer.create 512 in
  bits_of_mat b m;
  Buffer.contents b

let kak_bits (d : Weyl.Kak.t) =
  let b = Buffer.create 512 in
  List.iter (bits_of_float b) [ d.coords.x; d.coords.y; d.coords.z ];
  List.iter (bits_of_mat b) [ d.a1; d.a2; d.b1; d.b2 ];
  Buffer.contents b

(* the exact bits of every 2Q matrix in [gates], once each *)
let distinct_2q gates =
  List.sort_uniq compare
    (List.filter_map (fun (g : Gate.t) -> if Gate.is_2q g then Some (mat_bits g.mat) else None) gates)

(* Each distinct 2Q unitary is decomposed once per pass that makes it. On
   uccsd_8 under eff: once per distinct exact block unitary [fuse_2q]
   fuses that no input gate carries a KAK for (79 blocks, no local ones,
   on 11 matrices, one of them CNOT's), once per distinct mirrored matrix
   (SWAP · g, new to the pass) and once per solver class check, which
   only a memo miss runs. Every other reader takes the KAK the gate
   carries. *)
let test_decompositions_once () =
  Robust.Fault.configure None;
  Microarch.Genashn.memo_clear ();
  let solve_runs () = Robust.Counters.get ~stage:"genashn" "solve_run" in
  let d0 = decompositions () and s0 = solve_runs () in
  let out, _ = compile_default Passes.Eff "uccsd_8" in
  let outcomes = Reqisc.pulse_outcomes Reqisc.xy_coupling out.Passes.circuit in
  let n = decompositions () - d0 and class_checks = solve_runs () - s0 in
  let fused =
    let plan = Passes.plan_of_mode Passes.Eff in
    (fst
       (Expect.ok
          (Passes.compile_plan ~stop_after:"phoenix_to_su4" ~plan (Rng.create 1L)
             (suite_program "uccsd_8"))))
      .Passes.circuit.Circuit.gates
  in
  let fused_bits = distinct_2q fused in
  let mirrored_bits =
    distinct_2q
      (List.filter (fun (g : Gate.t) -> g.label = "su4*") out.Passes.circuit.Circuit.gates)
  in
  let new_mirrored = List.filter (fun m -> not (List.mem m fused_bits)) mirrored_bits in
  (* a block that is one CX in wire order fuses to the very matrix
     [Gate.cx] carries a KAK for *)
  let carried = List.map mat_bits Quantum.Gates.[ cnot; cz; swap; iswap ] in
  let new_fused = List.filter (fun m -> not (List.mem m carried)) fused_bits in
  Alcotest.(check int) "one pulse per gate" (Circuit.count_2q out.Passes.circuit)
    (List.length outcomes);
  Alcotest.(check int) "new fused + new mirrored + class checks"
    (List.length new_fused + List.length new_mirrored + class_checks)
    n;
  Alcotest.(check int) "decompositions" 16 n

(* Armed fault sites bypass the table: fusing uccsd_8 with [jacobi_stall]
   armed decomposes every fused block, so the sites fire at the calls
   they fire at with no table *)
let test_fault_bypass () =
  let plan = Passes.plan_of_mode Passes.Eff in
  Robust.Fault.configure (Some "jacobi_stall:1");
  let d0 = decompositions () in
  let r =
    Fun.protect
      ~finally:(fun () -> Robust.Fault.configure None)
      (fun () ->
        Passes.compile_plan ~stop_after:"phoenix_to_su4" ~plan (Rng.create 1L)
          (suite_program "uccsd_8"))
  in
  let n = decompositions () - d0 in
  let fused = Circuit.count_2q (fst (Expect.ok r)).Passes.circuit in
  Alcotest.(check int) "one decomposition per fused block" fused n;
  Alcotest.(check int) "fused blocks" 79 n

(* Two matrices that differ only in the sign of a zero are two keys:
   diag(1, 1, 1, -1 - 0i) is CZ to float [=], but its KAK has other bits *)
let test_signed_zero () =
  Robust.Fault.configure None;
  let u = Quantum.Gates.cz in
  let v = Mat.copy u in
  Mat.set_parts v 3 3 (-1.0) (-0.0);
  Alcotest.(check bool) "equal as floats" true (Mat.get_im u 3 3 = Mat.get_im v 3 3);
  let du = Weyl.Kak.decompose u and dv = Weyl.Kak.decompose v in
  Alcotest.(check bool) "different kak bits" false (kak_bits du = kak_bits dv);
  let kak = Blocks.kak_table [] in
  let d0 = decompositions () in
  let ku = kak u and kv = kak v in
  Alcotest.(check int) "two decompositions" 2 (decompositions () - d0);
  Alcotest.(check string) "u's bits" (kak_bits du) (kak_bits ku);
  Alcotest.(check string) "v's bits" (kak_bits dv) (kak_bits kv);
  let d1 = decompositions () in
  Alcotest.(check bool) "an exact repeat shares the record" true (kak (Mat.copy u) == ku);
  Alcotest.(check int) "no decomposition for the repeat" 0 (decompositions () - d1);
  (* a gate carrying v's KAK fuses to CZ's exact bits (a block sum starts
     at +0.0), which must not take v's KAK *)
  let g = Gate.make_kak "su4" [| 0; 1 |] v dv in
  let d2 = decompositions () in
  let fused = Blocks.fuse_2q (Circuit.create 2 [ g ]) in
  Alcotest.(check int) "the fused block is decomposed" 1 (decompositions () - d2);
  match fused.Circuit.gates with
  | [ { Gate.kak = Some d; mat; _ } ] ->
    Alcotest.(check string) "fused matrix" (mat_bits u) (mat_bits mat);
    Alcotest.(check string) "fused kak bits" (kak_bits du) (kak_bits d)
  | _ -> Alcotest.fail "expected one fused gate carrying its KAK"

(* one gate's pulse instruction as bytes: tau, drives, delta and the
   pre/post matrices *)
let pulse_bits (o : Reqisc.gate_outcome) =
  let b = Buffer.create 512 in
  (match o.Reqisc.outcome with
  | Robust.Outcome.Solved i | Robust.Outcome.Degraded (i, _) ->
    let p = i.Reqisc.pulse in
    List.iter (bits_of_float b)
      Microarch.Genashn.[ p.tau; p.drive_x1; p.drive_x2; p.delta ];
    List.iter
      (fun lr -> Option.iter (fun (l, r) -> bits_of_mat b l; bits_of_mat b r) lr)
      [ i.Reqisc.pre; i.Reqisc.post ]
  | Robust.Outcome.Failed e -> Buffer.add_string b (Robust.Err.to_string e));
  Buffer.contents b

(* Every output 2Q gate of the perfbench programs (pauli under eff,
   reversible under full) carries its KAK, and a reader gets exactly the
   bits a fresh decomposition gives: the KAK itself, and the pulse
   solved from it *)
let test_carried_bits () =
  Robust.Fault.configure None;
  let check mode name =
    let c = (fst (compile_default mode name)).Passes.circuit in
    (* a cold memo for each side: both are real solves *)
    let pulses gates =
      Microarch.Genashn.memo_clear ();
      List.map pulse_bits (Reqisc.pulse_outcomes Reqisc.xy_coupling { c with Circuit.gates })
    in
    let twoq = List.filter Gate.is_2q c.Circuit.gates in
    let bare = List.map (fun (g : Gate.t) -> Gate.make g.label g.qubits g.mat) twoq in
    List.iter
      (fun (g : Gate.t) ->
        let what = Printf.sprintf "%s %s" name (Gate.to_string g) in
        match g.kak with
        | None -> Alcotest.failf "%s carries no KAK" what
        | Some d ->
          Alcotest.(check string) (what ^ " kak bits")
            (kak_bits (Expect.ok (Weyl.Kak.decompose_r g.mat)))
            (kak_bits d);
          Alcotest.(check bool) (what ^ " reconstructs") true
            (Mat.equal ~tol:1e-10 (Weyl.Kak.reconstruct d) g.mat);
          Alcotest.(check bool) (what ^ " remap keeps it") true
            ((Gate.remap (fun q -> q + 1) g).kak == g.kak);
          Alcotest.(check bool) (what ^ " dagger drops it") true
            (Option.is_none (Gate.dagger g).kak))
      twoq;
    Alcotest.(check (list string)) (name ^ " pulse bits") (pulses bare) (pulses twoq)
  in
  List.iter (check Passes.Eff) [ "qaoa_8"; "qaoa_10"; "pf_6"; "pf_10"; "uccsd_8"; "uccsd_12" ];
  List.iter (check Passes.Full) [ "tof_5"; "mult_2"; "encoding_3" ]

(* Every pass output of the perfbench programs, under their perfbench
   plans: each 2Q gate that carries a KAK carries exactly the bits a fresh
   decomposition of its matrix gives, and gates with the same exact
   matrix carry one shared record *)
let test_carried_kak_bits () =
  Robust.Fault.configure None;
  let check_gates where gates =
    let seen = Hashtbl.create 64 in
    List.iter
      (fun (g : Gate.t) ->
        match g.kak with
        | Some d when Gate.is_2q g ->
          let what = Printf.sprintf "%s %s" where (Gate.to_string g) in
          Alcotest.(check string) (what ^ " kak bits")
            (kak_bits (Weyl.Kak.decompose g.mat))
            (kak_bits d);
          let key = mat_bits g.mat in
          (match Hashtbl.find_opt seen key with
          | Some d' -> Alcotest.(check bool) (what ^ " shares its record") true (d == d')
          | None -> Hashtbl.add seen key d)
        | _ -> ())
      gates
  in
  let check mode name =
    let plan = Passes.plan_of_mode mode in
    List.iter
      (fun (p : Pass.t) ->
        let where = name ^ "/" ^ p.Pass.name in
        match
          Passes.compile_plan ~stop_after:p.Pass.name ~plan (Rng.create 1L) (suite_program name)
        with
        | Ok (out, _) -> check_gates where out.Passes.circuit.Circuit.gates
        | Error _ when List.mem p.Pass.name [ "lower_3q"; "template" ] ->
          (* a Pauli program has no circuit before [phoenix_to_su4] *)
          ()
        | Error e -> Alcotest.failf "%s: %s" where (Robust.Err.to_string e))
      plan.Passes.passes
  in
  List.iter (check Passes.Eff) [ "qaoa_8"; "qaoa_10"; "pf_6"; "pf_10"; "uccsd_8"; "uccsd_12" ];
  List.iter (check Passes.Full) [ "tof_5"; "mult_2"; "encoding_3" ]

let props =
  let arb_seed = QCheck.make QCheck.Gen.(map Int64.of_int (int_bound 1000000)) in
  [
    QCheck.Test.make ~count:8 ~name:"eff plan prefixes preserve random circuits"
      arb_seed (fun s ->
        run_prefix_oracle ~plan_name:"eff/random"
          (Passes.plan_of_mode Passes.Eff)
          (Pass.Gates (random_circuit s));
        true);
    QCheck.Test.make ~count:4 ~name:"peephole preserves random circuits" arb_seed
      (fun s ->
        let c = Blocks.fuse_2q (Decomp.lower_to_cx (random_circuit s)) in
        let out = Peephole.run c in
        Circuit.count_2q out <= Circuit.count_2q c
        &&
        match
          Pass.check_equiv Pass.default_oracle ~reference:(Pass.Su4 c)
            ~candidate:(Pass.Su4 out)
        with
        | Ok _ -> true
        | Error _ -> false);
  ]

let () =
  Alcotest.run "passes"
    [
      ( "oracle",
        [
          Alcotest.test_case "prefixes of all default plans" `Slow test_prefix_oracle;
          Alcotest.test_case "broken pass is caught" `Quick test_broken_pass_caught;
        ] );
      ( "peephole",
        [
          Alcotest.test_case "fuses through commuting gates" `Quick
            test_peephole_fuses_commuting;
          Alcotest.test_case "respects non-commuting gates" `Quick
            test_peephole_respects_noncommuting;
          Alcotest.test_case "reorders with compact" `Slow test_reordering;
        ] );
      ( "plans",
        [
          Alcotest.test_case "slicing and strict names" `Quick test_slicing;
          Alcotest.test_case "default plans match facade" `Slow
            test_plan_matches_facade;
        ] );
      ("golden", golden_cases);
      ( "memo",
        [
          Alcotest.test_case "warm repeat" `Quick test_memo_warm_repeat;
          Alcotest.test_case "cross plan" `Quick test_memo_cross_plan;
          Alcotest.test_case "two domains" `Quick test_memo_two_domains;
        ] );
      ( "kak",
        [
          Alcotest.test_case "decompositions once" `Quick test_decompositions_once;
          Alcotest.test_case "carried bits" `Slow test_carried_bits;
          Alcotest.test_case "carried kak bits" `Quick test_carried_kak_bits;
          Alcotest.test_case "signed zero" `Quick test_signed_zero;
          Alcotest.test_case "fault bypass" `Quick test_fault_bypass;
        ] );
      ("props", List.map (QCheck_alcotest.to_alcotest ~long:false) props);
    ]
