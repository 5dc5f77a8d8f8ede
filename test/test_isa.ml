(* Cross-ISA differential matrix: every benchmark circuit compiled to
   every target ISA must stay statevector-equivalent to the uncompiled
   source (up to global phase), every lowered 2Q gate must come from the
   target's native set, per-gate synthesis must round-trip random SU(4)
   unitaries on every target, CNOT synthesis must hit the analytic
   minimum per Weyl class, the serve fingerprint must keep "isa" and
   "passes" keys disjoint (and legacy keys byte-identical), and the
   negative paths must be typed bad_requests at stage "compiler.isa". *)

open Numerics
open Compiler

let seed = 20260809L

(* corpus: same shapes as test_passes (each test binary is standalone) *)
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

let corpus =
  [
    ("toffoli_chain", Pass.Gates toffoli_chain);
    ("qft4", Pass.Gates qft4);
    ("pauli", Pass.Pauli pauli_prog);
  ]

(* ------------------------------------------- differential test matrix *)

(* every (bench, target) cell: compile through the lowering plan, check
   the result against the uncompiled source with the statevector oracle,
   and check every emitted 2Q gate is native to the target *)
let test_matrix () =
  List.iter
    (fun (t : Isa.target) ->
      let plan = Passes.plan_for_isa t in
      List.iter
        (fun (bench, source) ->
          let what = Printf.sprintf "%s/%s" t.Isa.name bench in
          let ctx = Pass.make_ctx (Rng.create seed) in
          match Passes.run_plan ctx plan (Pass.Source source) with
          | Error e -> Alcotest.failf "%s: %s" what (Robust.Err.to_string e)
          | Ok (ir, _) -> (
            (match
               Pass.check_equiv
                 { Pass.default_oracle with Pass.tol = 1e-4 }
                 ~reference:(Pass.Source source)
                 ~candidate:ir
             with
            | Ok _ -> ()
            | Error msg -> Alcotest.failf "%s: not equivalent: %s" what msg);
            match ir with
            | Pass.Native { isa; circuit } ->
              Alcotest.(check string) (what ^ " tags its isa") t.Isa.name isa;
              (* parametrized gates carry their angles in the label
                 ("can(x,y,z)"), so nativeness is a prefix match *)
              let native label =
                List.exists
                  (fun n ->
                    label = n || String.starts_with ~prefix:(n ^ "(") label)
                  t.Isa.native_2q
              in
              List.iter
                (fun (g : Gate.t) ->
                  if Gate.is_2q g && not (native g.Gate.label) then
                    Alcotest.failf "%s: emitted non-native 2Q gate %s" what
                      g.Gate.label)
                circuit.Circuit.gates
            | ir -> Alcotest.failf "%s: expected native IR, got %s" what (Pass.ir_form ir)))
        corpus)
    Isa.targets

(* the facade threads ?isa end to end; an unknown name is a typed error *)
let test_facade () =
  (match Reqisc.compile ~isa:"cnot" (Rng.create seed) toffoli_chain with
  | Error e -> Alcotest.failf "compile ~isa:cnot: %s" (Robust.Err.to_string e)
  | Ok out ->
    List.iter
      (fun (g : Gate.t) ->
        if Gate.is_2q g then
          Alcotest.(check string) "cnot target emits only cx" "cx" g.Gate.label)
      out.Reqisc.circuit.Circuit.gates);
  match Reqisc.compile ~isa:"bogus" (Rng.create seed) toffoli_chain with
  | Ok _ -> Alcotest.fail "compile accepted an unknown isa"
  | Error e ->
    Alcotest.(check string) "typed at the compiler's stage" "compiler.isa"
      (Robust.Err.stage e)

(* ------------------------------------------------ synthesis round-trip *)

let contains_sub msg sub =
  let ls = String.length msg and lb = String.length sub in
  let rec go i = i + lb <= ls && (String.sub msg i lb = sub || go (i + 1)) in
  go 0

let arb_seed = QCheck.make QCheck.Gen.(map Int64.of_int (int_bound 1000000))

(* synthesize target (Kak.coords u) must land in u's Weyl class for every
   target, and the dressed lowering must reproduce u itself exactly *)
let prop_synth_roundtrip =
  QCheck.Test.make ~count:20 ~name:"synthesize covers random SU(4) on all targets"
    arb_seed (fun s ->
      let rng = Rng.create s in
      let u = Quantum.Haar.su4 rng in
      let c = Weyl.Kak.coords_of u in
      List.for_all
        (fun (t : Isa.target) ->
          let gates = t.Isa.synthesize 0 1 c in
          let class_ok =
            match gates with
            | [] -> Weyl.Coords.dist c Weyl.Coords.identity < 1e-7
            | _ ->
              Weyl.Kak.locally_equivalent
                (Circuit.unitary (Circuit.create 2 gates))
                u
          in
          let lowered = Isa.lower t (Circuit.create 2 [ Gate.su4 0 1 u ]) in
          class_ok
          && Mat.frobenius_dist u (Circuit.unitary lowered) < 1e-6
          && List.length (List.filter Gate.is_2q gates) = t.Isa.gates_for c)
        Isa.targets)

(* CNOT-target synthesis is optimal: <= 3 CNOTs always, and exactly the
   analytic minimum (Decomp.cnot_count_for) on every class *)
let prop_cnot_optimal =
  QCheck.Test.make ~count:30 ~name:"cnot synthesis hits the analytic minimum"
    arb_seed (fun s ->
      let rng = Rng.create s in
      let c = Weyl.Kak.coords_of (Quantum.Haar.su4 rng) in
      let cnot =
        match Isa.find "cnot" with Some t -> t | None -> assert false
      in
      let emitted =
        List.length (List.filter Gate.is_2q (cnot.Isa.synthesize 0 1 c))
      in
      emitted <= 3 && emitted = Decomp.cnot_count_for c)

let test_cnot_known_classes () =
  let cnot = match Isa.find "cnot" with Some t -> t | None -> assert false in
  List.iter
    (fun (tag, c, expect) ->
      let emitted =
        List.length (List.filter Gate.is_2q (cnot.Isa.synthesize 0 1 c))
      in
      Alcotest.(check int) (tag ^ " analytic minimum") expect emitted;
      Alcotest.(check int) (tag ^ " gates_for agrees") expect (cnot.Isa.gates_for c))
    [
      ("identity", Weyl.Coords.identity, 0);
      ("cnot-class", Weyl.Coords.cnot, 1);
      ("iswap-class", Weyl.Coords.iswap, 2);
      ("swap-class", Weyl.Coords.swap, 3);
      ("generic", Weyl.Coords.make 0.6 0.3 0.2, 3);
    ]

(* ------------------------------------------------ fingerprint regression *)

let body_of line =
  match Serve.Protocol.parse_line line with
  | { Serve.Protocol.body = Ok b; _ } -> b
  | { Serve.Protocol.body = Error e; _ } ->
    Alcotest.failf "parse %s: %s" line e

let key_of line =
  match Serve.Protocol.body_key (body_of line) with
  | Some k -> k
  | None -> Alcotest.failf "no key for %s" line

let test_fingerprint () =
  let base = "{\"v\":1,\"op\":\"compile\",\"bench\":\"alu_1\"}" in
  (* omitting the field reproduces the exact legacy key bytes *)
  let module F = Cache.Fingerprint in
  let legacy =
    F.key
      (F.opt F.float
         (F.opt F.int
            (F.bool (F.str (F.str (F.create "serve.compile.v1") "alu_1") "eff") false)
            None)
         None)
  in
  Alcotest.(check string) "legacy key bytes unchanged" legacy (key_of base);
  (* isa-only, passes-only and absent are three distinct keys — and the
     same name under the two markers can never collide *)
  let with_isa = "{\"v\":1,\"op\":\"compile\",\"bench\":\"alu_1\",\"isa\":\"to_can\"}" in
  let with_passes =
    "{\"v\":1,\"op\":\"compile\",\"bench\":\"alu_1\",\"passes\":[\"to_can\"]}"
  in
  let keys = [ key_of base; key_of with_isa; key_of with_passes ] in
  Alcotest.(check int) "absent/isa/passes all distinct" 3
    (List.length (List.sort_uniq compare keys));
  (* two requests differing only in the target never share a key *)
  Alcotest.(check bool) "distinct targets get distinct keys" false
    (key_of "{\"v\":1,\"op\":\"compile\",\"bench\":\"alu_1\",\"isa\":\"cnot\"}"
    = key_of "{\"v\":1,\"op\":\"compile\",\"bench\":\"alu_1\",\"isa\":\"cz\"}");
  (* even a typed-wrong value keys distinctly while it rides to the
     engine's validator *)
  Alcotest.(check bool) "non-string isa still keys" true
    (key_of "{\"v\":1,\"op\":\"compile\",\"bench\":\"alu_1\",\"isa\":42}" <> key_of base)

(* --------------------------------------------------- serve negative paths *)

let test_serve_paths () =
  let eng = Serve.Engine.create ~workers:1 ~seed:7L () in
  let run line =
    Robust.Json.to_string
      (Serve.Engine.exec_once eng (Serve.Protocol.parse_line line))
  in
  let ok = run "{\"v\":1,\"id\":1,\"op\":\"compile\",\"bench\":\"alu_1\",\"isa\":\"cnot\"}" in
  Alcotest.(check bool) "valid isa answers ok" true (contains_sub ok "\"ok\":true");
  Alcotest.(check bool) "response names the target" true
    (contains_sub ok "\"isa\":\"cnot\"");
  List.iter
    (fun (what, line) ->
      let resp = run line in
      Alcotest.(check bool) (what ^ " rejected") true
        (contains_sub resp "\"ok\":false");
      Alcotest.(check bool) (what ^ " is bad_request") true
        (contains_sub resp "bad_request");
      Alcotest.(check bool) (what ^ " typed at compiler.isa") true
        (contains_sub resp "compiler.isa");
      Alcotest.(check bool) (what ^ " names a known target") true
        (contains_sub resp "sqisw"))
    [
      ("unknown name", "{\"v\":1,\"id\":2,\"op\":\"compile\",\"bench\":\"alu_1\",\"isa\":\"bogus\"}");
      ("non-string", "{\"v\":1,\"id\":3,\"op\":\"compile\",\"bench\":\"alu_1\",\"isa\":42}");
    ];
  (* legacy requests still carry no isa field at all *)
  let legacy = run "{\"v\":1,\"id\":4,\"op\":\"compile\",\"bench\":\"alu_1\"}" in
  Alcotest.(check bool) "legacy response has no isa member" false
    (contains_sub legacy "\"isa\"");
  Serve.Engine.drain eng

let () =
  Alcotest.run "isa"
    [
      ( "matrix",
        [
          Alcotest.test_case "all benches x all targets equivalent" `Slow test_matrix;
          Alcotest.test_case "facade threads ?isa" `Slow test_facade;
        ] );
      ( "synthesis",
        [
          Alcotest.test_case "cnot known-class counts" `Quick test_cnot_known_classes;
        ]
        @ List.map (QCheck_alcotest.to_alcotest ~long:false)
            [ prop_synth_roundtrip; prop_cnot_optimal ] );
      ( "serve",
        [
          Alcotest.test_case "fingerprint isa/passes disjoint" `Quick test_fingerprint;
          Alcotest.test_case "negative paths typed" `Quick test_serve_paths;
        ] );
    ]
