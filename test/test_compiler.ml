(* Tests for the ReQISC compiler passes: block collection/fusion, template
   synthesis, DAG compacting, hierarchical synthesis, phoenix front end,
   mirroring, routing, baselines, end-to-end pipeline. *)

open Numerics
open Compiler

let rng = Rng.create 77L

let check_phase ?(tol = 1e-6) msg expected actual =
  Alcotest.(check bool)
    (msg ^ " (phase dist " ^ string_of_float (Mat.phase_dist expected actual) ^ ")")
    true
    (Mat.allclose_up_to_phase ~tol expected actual)

(* permutation operator: moves logical wire l's bit to physical wire m.(l) *)
let arrange_matrix n (m : int array) =
  let dim = 1 lsl n in
  Mat.init dim dim (fun y x ->
      let ok = ref true in
      for l = 0 to n - 1 do
        if (y lsr (n - 1 - m.(l))) land 1 <> (x lsr (n - 1 - l)) land 1 then ok := false
      done;
      if !ok then Cx.one else Cx.zero)

(* small structured circuits used across tests *)
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

(* ----------------------------------------------------------------- fuse *)

let test_fuse_preserves_unitary () =
  let c =
    Circuit.create 3
      [ Gate.cx 0 1; Gate.rz 1 0.3; Gate.cx 0 1; Gate.cx 1 2; Gate.h 0; Gate.cx 1 2 ]
  in
  let f = Blocks.fuse_2q c in
  check_phase "fuse preserves" (Circuit.unitary c) (Circuit.unitary f);
  (* the cancelling cx pair on (1,2) fuses away entirely *)
  Alcotest.(check int) "fused 2q count" 1 (Circuit.count_2q f)

let test_collect_partition () =
  let blocks = Blocks.collect ~w:3 toffoli_chain in
  let re = Blocks.to_circuit 4 blocks in
  check_phase "partition re-emits" (Circuit.unitary toffoli_chain) (Circuit.unitary re);
  List.iter
    (fun (b : Blocks.block) ->
      Alcotest.(check bool) "block width" true (List.length b.qubits <= 3))
    blocks

let test_block_unitary_replacement () =
  (* replacing blocks by their fused unitaries preserves the circuit *)
  let blocks = Blocks.collect ~w:3 toffoli_chain in
  let gates =
    List.map
      (fun (b : Blocks.block) ->
        let qs = Array.of_list b.qubits in
        Gate.make "blk" qs (Blocks.block_unitary b))
      blocks
  in
  let c = Circuit.create 4 gates in
  check_phase "block fusion preserves" (Circuit.unitary toffoli_chain) (Circuit.unitary c)

(* ------------------------------------------------------------- template *)

let test_template_toffoli () =
  let lib = Template.create_library (Rng.create 3L) in
  let t = Template.template_for lib Quantum.Gates.ccx in
  let k = List.length (List.filter Gate.is_2q t) in
  Alcotest.(check bool) (Printf.sprintf "toffoli template uses %d su4" k) true (k <= 6);
  let c = Circuit.create 3 t in
  check_phase ~tol:1e-3 "template synthesizes ccx" Quantum.Gates.ccx (Circuit.unitary c);
  (* second request hits the memo *)
  let _ = Template.template_for lib Quantum.Gates.ccx in
  Alcotest.(check int) "library size" 1 (Template.library_size lib)

let test_template_run () =
  let lib = Template.create_library (Rng.create 4L) in
  let out = Template.run lib toffoli_chain in
  Alcotest.(check bool) "only <=2q gates" true (Circuit.max_arity out <= 2);
  check_phase ~tol:1e-3 "template run preserves" (Circuit.unitary toffoli_chain)
    (Circuit.unitary out);
  (* beats naive 6-cnot-per-toffoli lowering *)
  let naive = Circuit.count_2q (Decomp.lower_to_cx toffoli_chain) in
  Alcotest.(check bool)
    (Printf.sprintf "reduces #2q (%d vs naive %d)" (Circuit.count_2q out) naive)
    true
    (Circuit.count_2q out < naive)

(* ---------------------------------------------------------------- synth *)

(* A generic product of three SU(4)s on a 3-qubit triangle needs three
   slots. Each of the six restarts at two slots stalls far from tol, so the
   relative stall bar ends it in a few dozen sweeps (an absolute bar alone
   lets the six creep on for 481 in total). The converging three-slot
   search is untouched: its first restart converges in 15. *)
let test_synth_failing_count_stops_early () =
  let rng = Rng.create 84L in
  let su4 a b = Gate.su4 a b (Quantum.Haar.su4 rng) in
  let target = Circuit.unitary (Circuit.create 3 [ su4 0 1; su4 1 2; su4 0 2 ]) in
  let sweeps () = Robust.Counters.get ~stage:"compiler.synth" "sweeps" in
  let s0 = sweeps () in
  let _, inf = Synth.optimize ~restarts:6 rng ~n:3 ~target (Synth.su4_template ~n:3 2) in
  let failing = sweeps () - s0 in
  Alcotest.(check bool) (Printf.sprintf "two slots fail (inf %.3g)" inf) true (inf > 1e-10);
  Alcotest.(check bool) (Printf.sprintf "failing count stops early (%d sweeps)" failing) true
    (failing <= 250);
  let s1 = sweeps () in
  let _, inf = Synth.optimize ~restarts:6 rng ~n:3 ~target (Synth.su4_template ~n:3 3) in
  Alcotest.(check bool) (Printf.sprintf "three slots converge (inf %.3g)" inf) true (inf < 1e-10);
  Alcotest.(check int) "converging sweeps" 15 (sweeps () - s1)

let synth_count name = Robust.Counters.get ~stage:"compiler.synth" name

let gate_bits (g : Gate.t) =
  let bits m = Array.map Int64.bits_of_float m in
  (g.label, g.qubits, bits (Mat.re_plane g.mat), bits (Mat.im_plane g.mat))

(* a two-slot search on a 3-qubit target, from a fixed stream position;
   returns its gate bits and infidelity bits and the stream's next draws *)
let memo_probe () =
  let r = Rng.create 31L in
  let su4 a b = Gate.su4 a b (Quantum.Haar.su4 r) in
  let target = Circuit.unitary (Circuit.create 3 [ su4 0 1; su4 1 2 ]) in
  let rng = Rng.create 32L in
  let gates, inf = Synth.optimize ~restarts:3 rng ~n:3 ~target (Synth.su4_template ~n:3 2) in
  let next = [ Rng.gaussian rng; Rng.gaussian rng; Rng.float rng 1.0 ] in
  (List.map gate_bits gates, Int64.bits_of_float inf, List.map Int64.bits_of_float next)

(* A repeat from the same stream position is answered from the memo: the
   same gate and infidelity bits, no restart or sweep, and the caller's
   stream moved to where the search left it, Box-Muller's cached deviate
   included *)
let test_synth_memo_repeat () =
  Robust.Fault.configure None;
  Synth.memo_clear ();
  let m0 = synth_count "memo_miss" in
  let cold = memo_probe () in
  Alcotest.(check int) "cold miss" 1 (synth_count "memo_miss" - m0);
  Alcotest.(check int) "one entry" 1 (Synth.memo_length ());
  let h0 = synth_count "memo_hit" and r0 = synth_count "restarts" in
  let s0 = synth_count "sweeps" in
  let warm = memo_probe () in
  Alcotest.(check bool) "same bits and next draws" true (cold = warm);
  Alcotest.(check int) "warm hit" 1 (synth_count "memo_hit" - h0);
  Alcotest.(check int) "warm restarts" 0 (synth_count "restarts" - r0);
  Alcotest.(check int) "warm sweeps" 0 (synth_count "sweeps" - s0)

(* a fixed gate's label is not a search input: the same search with a
   relabeled CNOT hits, and hands back the caller's own gate *)
let test_synth_memo_label () =
  Robust.Fault.configure None;
  Synth.memo_clear ();
  let target = Gate.cx 0 1 in
  let search fixed =
    Synth.optimize ~restarts:2 (Rng.create 33L) ~n:2 ~target:target.mat
      [ Synth.Free1q 0; Synth.Free1q 1; Synth.Fixed fixed; Synth.Free1q 0; Synth.Free1q 1 ]
  in
  let cold, _ = search target in
  let h0 = synth_count "memo_hit" in
  let relabeled = Gate.make "cnot" target.qubits target.mat in
  let warm, _ = search relabeled in
  Alcotest.(check int) "relabeled hit" 1 (synth_count "memo_hit" - h0);
  Alcotest.(check int) "one entry" 1 (Synth.memo_length ());
  Alcotest.(check (list string)) "caller's labels"
    (List.map (fun (g : Gate.t) -> if g == target then "cnot" else g.label) cold)
    (List.map (fun (g : Gate.t) -> g.label) warm);
  let unlabeled g =
    let _, q, re, im = gate_bits g in
    (q, re, im)
  in
  Alcotest.(check bool) "same wires and bits" true
    (List.map unlabeled cold = List.map unlabeled warm)

(* An armed fault site shapes sweeps ([mul_nan] poisons one product), so
   no search under it reads or fills the memo: the exhausted site's second
   search runs again rather than replay the first *)
let test_synth_memo_faults () =
  Robust.Fault.configure None;
  Synth.memo_clear ();
  let clean = memo_probe () in
  Synth.memo_clear ();
  let h0 = synth_count "memo_hit" and m0 = synth_count "memo_miss" in
  let s0 = synth_count "sweeps" in
  let armed =
    Fun.protect ~finally:(fun () -> Robust.Fault.configure None) (fun () ->
        Robust.Fault.configure (Some "mul_nan:1");
        ignore (memo_probe ());
        let second = memo_probe () in
        Alcotest.(check int) "site fired" 1 (List.assoc "mul_nan" (Robust.Fault.hits ()));
        second)
  in
  Alcotest.(check int) "no hits" 0 (synth_count "memo_hit" - h0);
  Alcotest.(check int) "no lookups" 0 (synth_count "memo_miss" - m0);
  Alcotest.(check int) "no inserts" 0 (Synth.memo_length ());
  Alcotest.(check bool) "both searches ran" true (synth_count "sweeps" - s0 > 0);
  Alcotest.(check bool) "second search is the clean one" true (armed = clean)

(* -------------------------------------------------------------- compact *)

let test_exchangeable_commuting () =
  (* zz rotations on overlapping pairs commute exactly *)
  let g1 = Gate.su4 0 1 (Quantum.Gates.rzz 0.7) in
  let g2 = Gate.su4 1 2 (Quantum.Gates.rzz 0.3) in
  match Compact.exchangeable rng g1 g2 with
  | None -> Alcotest.fail "commuting pair not exchangeable"
  | Some (a, b) ->
    Alcotest.(check bool) "a on (1,2)" true (a.Gate.qubits = [| 1; 2 |]);
    let before =
      Circuit.unitary (Circuit.create 3 [ g1; g2 ])
    in
    let after = Circuit.unitary (Circuit.create 3 [ a; b ]) in
    check_phase ~tol:1e-4 "exchange preserves product" before after

let test_exchangeable_generic_fails () =
  (* two haar gates on overlapping pairs are generically not exchangeable *)
  let r = Rng.create 12L in
  let g1 = Gate.su4 0 1 (Quantum.Haar.su4 r) in
  let g2 = Gate.su4 1 2 (Quantum.Haar.su4 r) in
  match Compact.exchangeable rng g1 g2 with
  | None -> ()
  | Some (a, b) ->
    (* if the optimizer claims success it must actually be exact *)
    let before = Circuit.unitary (Circuit.create 3 [ g1; g2 ]) in
    let after = Circuit.unitary (Circuit.create 3 [ a; b ]) in
    check_phase ~tol:1e-4 "claimed exchange is real" before after

(* ---------------------------------------------------------- hierarchical *)

let test_hierarchical_reduces () =
  (* a dense 3-qubit block with many cnots compresses *)
  let r = Rng.create 5L in
  let gates =
    List.concat
      (List.init 8 (fun _ ->
           let a = Rng.int r 3 in
           let b = (a + 1 + Rng.int r 2) mod 3 in
           [ Gate.cx (min a b) (max a b); Gate.ry a (Rng.float r 1.0) ]))
  in
  let c = Circuit.create 3 gates in
  let before = Circuit.count_2q c in
  let out = Hierarchical.run ~compacting:false rng c in
  let after = Circuit.count_2q out in
  Alcotest.(check bool)
    (Printf.sprintf "reduced (%d -> %d)" before after)
    true (after <= 6 && after < before);
  check_phase ~tol:1e-3 "hierarchical preserves" (Circuit.unitary c) (Circuit.unitary out)

(* -------------------------------------------------------------- phoenix *)

let test_phoenix_zz () =
  let p =
    Phoenix.
      { n = 2; terms = [ { pauli = Quantum.Pauli.of_string "ZZ"; angle = 0.8 } ] }
  in
  let cx = Phoenix.to_cx_circuit p and su = Phoenix.to_su4_circuit p in
  check_phase "ladder = rotation"
    (Expm.herm_expi (Quantum.Pauli.to_matrix (Quantum.Pauli.of_string "ZZ")) ~t:0.4)
    (Circuit.unitary cx);
  check_phase "su4 = ladder" (Circuit.unitary cx) (Circuit.unitary su);
  Alcotest.(check int) "single su4" 1 (Circuit.count_2q su)

let test_phoenix_long_string () =
  let p =
    Phoenix.
      { n = 4; terms = [ { pauli = Quantum.Pauli.of_string "XYZX"; angle = 0.5 } ] }
  in
  let cx = Phoenix.to_cx_circuit p and su = Phoenix.to_su4_circuit p in
  let expected =
    Expm.herm_expi (Quantum.Pauli.to_matrix (Quantum.Pauli.of_string "XYZX")) ~t:0.25
  in
  check_phase "cx ladder realizes exp" expected (Circuit.unitary cx);
  check_phase "su4 form equal" expected (Circuit.unitary su);
  Alcotest.(check bool) "su4 saves 2q gates" true
    (Circuit.count_2q su < Circuit.count_2q cx)

let test_phoenix_simplify () =
  let t angle = Phoenix.{ pauli = Quantum.Pauli.of_string "ZZ"; angle } in
  let p = Phoenix.{ n = 2; terms = [ t 0.3; t 0.4; t (-0.7) ] } in
  let s = Phoenix.simplify p in
  Alcotest.(check int) "merged to nothing" 0 (List.length s.Phoenix.terms)

(* ------------------------------------------------------------ mirroring *)

let test_mirroring_qft () =
  (* qft4 has near-identity cphases; mirroring must fire and stay exact *)
  let fused = Blocks.fuse_2q qft4 in
  let m = Mirroring.run ~r:0.3 fused in
  Alcotest.(check bool)
    (Printf.sprintf "mirrored %d gates" m.Mirroring.mirrored)
    true (m.Mirroring.mirrored >= 1);
  Alcotest.(check int) "no gate count change" (Circuit.count_2q fused)
    (Circuit.count_2q m.Mirroring.circuit);
  let fix = arrange_matrix 4 m.Mirroring.final_mapping in
  check_phase "mirrored circuit + mapping = original" (Circuit.unitary qft4)
    (Mat.mul (Mat.dagger fix) (Circuit.unitary m.Mirroring.circuit))

let test_mirroring_classes_far () =
  let fused = Blocks.fuse_2q qft4 in
  let m = Mirroring.run ~r:0.3 fused in
  List.iter
    (fun (g : Gate.t) ->
      if Gate.is_2q g then begin
        let c = Weyl.Kak.coords_of g.mat in
        Alcotest.(check bool) "no near-identity 2q remains" true
          (Weyl.Coords.norm1 c > 0.3 -. 1e-9)
      end)
    m.Mirroring.circuit.Circuit.gates

(* -------------------------------------------------------------- routing *)

let random_logical_circuit r n gates =
  Circuit.create n
    (List.init gates (fun _ ->
         let a = Rng.int r n in
         let b = (a + 1 + Rng.int r (n - 1)) mod n in
         Gate.su4 a b (Quantum.Haar.su4 r)))

let check_routed msg topo (c : Circuit.t) (r : Routing.routed) =
  (* all 2q gates act on adjacent physical wires *)
  List.iter
    (fun (g : Gate.t) ->
      if Gate.is_2q g then
        Alcotest.(check bool) (msg ^ " adjacency") true
          (topo.Routing.dist.(g.qubits.(0)).(g.qubits.(1)) = 1))
    r.Routing.circuit.Circuit.gates;
  (* semantics: Rf† U_routed Ri = U_logical *)
  let ri = arrange_matrix topo.Routing.n r.Routing.initial_mapping in
  let rf = arrange_matrix topo.Routing.n r.Routing.final_mapping in
  let padded = Circuit.create topo.Routing.n c.Circuit.gates in
  check_phase (msg ^ " semantics")
    (Circuit.unitary padded)
    (Mat.mul3 (Mat.dagger rf) (Circuit.unitary r.Routing.circuit) ri)

let test_sabre_chain () =
  let topo = Routing.chain 4 in
  let c = random_logical_circuit (Rng.create 21L) 4 8 in
  let r = Routing.route topo c in
  check_routed "sabre chain" topo c r

let test_sabre_grid () =
  let topo = Routing.grid ~rows:2 ~cols:3 in
  let c = random_logical_circuit (Rng.create 22L) 6 10 in
  let r = Routing.route topo c in
  check_routed "sabre grid" topo c r

let test_mirroring_sabre () =
  let topo = Routing.chain 5 in
  let c = random_logical_circuit (Rng.create 23L) 5 12 in
  let plain = Routing.route topo c in
  let mir = Routing.route ~mirror:true topo c in
  check_routed "mirroring sabre" topo c mir;
  let cnt (r : Routing.routed) = Circuit.count_2q r.Routing.circuit in
  Alcotest.(check bool)
    (Printf.sprintf "mirroring no worse (%d vs %d)" (cnt mir) (cnt plain))
    true
    (cnt mir <= cnt plain);
  Alcotest.(check bool) "absorbed some swaps or inserted none" true
    (mir.Routing.swaps_absorbed > 0 || mir.Routing.swaps_inserted = 0)

let test_routing_already_mapped () =
  (* a circuit that needs no swaps routes unchanged *)
  let topo = Routing.chain 3 in
  let c = Circuit.create 3 [ Gate.cx 0 1; Gate.cx 1 2 ] in
  let r = Routing.route topo c in
  Alcotest.(check int) "no swaps" 0 r.Routing.swaps_inserted;
  Alcotest.(check int) "2 gates" 2 (Circuit.count_2q r.Routing.circuit)

(* ------------------------------------------------------------ baselines *)

let test_qiskit_like () =
  let c =
    Circuit.create 3
      [ Gate.cx 0 1; Gate.cx 0 1; Gate.h 2; Gate.cx 1 2; Gate.t 2; Gate.cx 1 2 ]
  in
  let out = Baselines.qiskit_like c in
  check_phase "qiskit-like preserves" (Circuit.unitary c) (Circuit.unitary out);
  Alcotest.(check bool) "cancels and consolidates" true (Circuit.count_2q out <= 2);
  Alcotest.(check bool) "cx only" true
    (List.for_all
       (fun (g : Gate.t) -> Gate.arity g = 1 || g.label = "cx")
       out.Circuit.gates)

let test_bqskit_su4 () =
  let out = Baselines.bqskit_like (Rng.create 6L) ~target:Baselines.To_su4 toffoli_chain in
  Alcotest.(check bool) "only <=2q" true (Circuit.max_arity out <= 2);
  check_phase ~tol:1e-3 "bqskit preserves" (Circuit.unitary toffoli_chain)
    (Circuit.unitary out)

(* ------------------------------------------------------------- pipeline *)

let test_pipeline_eff_toffoli_chain () =
  let out, _ =
    Expect.ok
      (Passes.compile_plan ~plan:(Passes.plan_of_mode Passes.Eff) rng (Pass.Gates toffoli_chain))
  in
  Alcotest.(check bool) "<=2q" true (Circuit.max_arity out.Passes.circuit <= 2);
  let fix = arrange_matrix 4 out.Passes.final_mapping in
  check_phase ~tol:1e-3 "pipeline preserves semantics"
    (Circuit.unitary toffoli_chain)
    (Mat.mul (Mat.dagger fix) (Circuit.unitary out.Passes.circuit));
  let baseline = Circuit.count_2q (Baselines.qiskit_like (Decomp.lower_to_cx toffoli_chain)) in
  Alcotest.(check bool)
    (Printf.sprintf "beats qiskit-like (%d vs %d)" (Circuit.count_2q out.Passes.circuit) baseline)
    true
    (Circuit.count_2q out.Passes.circuit < baseline)

let test_pipeline_pauli () =
  let p =
    Phoenix.
      {
        n = 3;
        terms =
          [
            { pauli = Quantum.Pauli.of_string "ZZI"; angle = 0.4 };
            { pauli = Quantum.Pauli.of_string "IZZ"; angle = 0.6 };
            { pauli = Quantum.Pauli.of_string "XII"; angle = 0.9 };
          ];
      }
  in
  let out, _ =
    Expect.ok (Passes.compile_plan ~plan:(Passes.plan_of_mode Passes.Eff) rng (Pass.Pauli p))
  in
  let reference = Circuit.unitary (Phoenix.to_cx_circuit p) in
  let fix = arrange_matrix 3 out.Passes.final_mapping in
  check_phase ~tol:1e-6 "pauli pipeline preserves" reference
    (Mat.mul (Mat.dagger fix) (Circuit.unitary out.Passes.circuit))

(* -------------------------------------------------------------- metrics *)

let test_metrics () =
  let c = Circuit.create 2 [ Gate.cx 0 1; Gate.h 0; Gate.cx 0 1 ] in
  let r = Metrics.report Metrics.Cnot_isa c in
  Alcotest.(check int) "#2q" 2 r.Metrics.count_2q;
  Alcotest.(check (float 1e-6)) "duration = 2 cnot" (2.0 *. Float.pi /. sqrt 2.0)
    r.Metrics.duration;
  let xy = Microarch.Coupling.xy ~g:1.0 in
  let r2 = Metrics.report (Metrics.Su4_isa xy) c in
  Alcotest.(check (float 1e-6)) "native duration = pi" Float.pi r2.Metrics.duration;
  Alcotest.(check (float 1e-9)) "reduction 50%" 50.0
    (Metrics.reduction ~base:4.0 ~opt:2.0)

let () =
  Alcotest.run "compiler"
    [
      ( "blocks",
        [
          Alcotest.test_case "fuse preserves" `Quick test_fuse_preserves_unitary;
          Alcotest.test_case "collect partition" `Quick test_collect_partition;
          Alcotest.test_case "block replacement" `Quick test_block_unitary_replacement;
        ] );
      ( "template",
        [
          Alcotest.test_case "toffoli" `Quick test_template_toffoli;
          Alcotest.test_case "run" `Quick test_template_run;
        ] );
      ( "synth",
        [
          Alcotest.test_case "failing count stops early" `Quick
            test_synth_failing_count_stops_early;
          Alcotest.test_case "memo repeat" `Quick test_synth_memo_repeat;
          Alcotest.test_case "memo ignores labels" `Quick test_synth_memo_label;
          Alcotest.test_case "memo off under faults" `Quick test_synth_memo_faults;
        ] );
      ( "compact",
        [
          Alcotest.test_case "commuting exchange" `Quick test_exchangeable_commuting;
          Alcotest.test_case "generic fails" `Quick test_exchangeable_generic_fails;
        ] );
      ( "hierarchical",
        [ Alcotest.test_case "reduces dense block" `Slow test_hierarchical_reduces ] );
      ( "phoenix",
        [
          Alcotest.test_case "zz" `Quick test_phoenix_zz;
          Alcotest.test_case "long string" `Quick test_phoenix_long_string;
          Alcotest.test_case "simplify" `Quick test_phoenix_simplify;
        ] );
      ( "mirroring",
        [
          Alcotest.test_case "qft4" `Quick test_mirroring_qft;
          Alcotest.test_case "classes far" `Quick test_mirroring_classes_far;
        ] );
      ( "routing",
        [
          Alcotest.test_case "sabre chain" `Quick test_sabre_chain;
          Alcotest.test_case "sabre grid" `Quick test_sabre_grid;
          Alcotest.test_case "mirroring sabre" `Quick test_mirroring_sabre;
          Alcotest.test_case "already mapped" `Quick test_routing_already_mapped;
        ] );
      ( "baselines",
        [
          Alcotest.test_case "qiskit-like" `Quick test_qiskit_like;
          Alcotest.test_case "bqskit su4" `Slow test_bqskit_su4;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "eff on toffoli chain" `Slow test_pipeline_eff_toffoli_chain;
          Alcotest.test_case "pauli program" `Quick test_pipeline_pauli;
        ] );
      ("metrics", [ Alcotest.test_case "reports" `Quick test_metrics ]);
    ]
