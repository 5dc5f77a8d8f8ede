(* Facade-level and consistency tests: the public Reqisc API, face-equation
   invariants of the duration planner, and format edge cases. *)

open Numerics

let rng = Rng.create 60606L

(* ----------------------------------------------------------------- facade *)

let test_facade_compile_and_pulse () =
  let circuit = Circuit.create 3 [ Gate.h 0; Gate.ccx 0 1 2; Gate.cx 1 2 ] in
  let out = Expect.ok (Reqisc.compile ~mode:Reqisc.Eff (Rng.create 1L) circuit) in
  Alcotest.(check bool) "produced gates" true (Circuit.count_2q out.Reqisc.circuit > 0);
  let instrs = Expect.ok (Reqisc.pulses Reqisc.xy_coupling out.Reqisc.circuit) in
  Alcotest.(check int) "pulse per gate" (Circuit.count_2q out.Reqisc.circuit)
    (List.length instrs);
  let r = Reqisc.metrics (Compiler.Metrics.Su4_isa Reqisc.xy_coupling) out.Reqisc.circuit in
  Alcotest.(check bool) "positive duration" true (r.Compiler.Metrics.duration > 0.0)

let test_facade_route () =
  let circuit = Circuit.create 4 [ Gate.cx 0 3; Gate.cx 1 2; Gate.cx 0 2 ] in
  let out = Expect.ok (Reqisc.compile (Rng.create 2L) circuit) in
  let topo = Compiler.Routing.chain 4 in
  let routed = Expect.ok (Reqisc.route topo out.Reqisc.circuit) in
  List.iter
    (fun (g : Gate.t) ->
      if Gate.is_2q g then
        Alcotest.(check bool) "adjacent" true
          (topo.Compiler.Routing.dist.(g.qubits.(0)).(g.qubits.(1)) = 1))
    routed.Compiler.Routing.circuit.Circuit.gates

let test_facade_route_too_wide () =
  (* a circuit wider than the device is a typed error, not an exception *)
  let circuit = Circuit.create 5 [ Gate.cx 0 4 ] in
  let topo = Compiler.Routing.chain 3 in
  match Reqisc.route topo circuit with
  | Ok _ -> Alcotest.fail "expected a routing error"
  | Error e ->
    Alcotest.(check string) "stage" "compiler.routing" (Robust.Err.stage e);
    Alcotest.(check string) "kind" "ill_conditioned" (Robust.Err.kind e)

let test_facade_pauli () =
  let p =
    Compiler.Phoenix.
      { n = 2; terms = [ { pauli = Quantum.Pauli.of_string "XX"; angle = 0.5 } ] }
  in
  let out = Expect.ok (Reqisc.compile_pauli (Rng.create 4L) p) in
  Alcotest.(check int) "one su4" 1 (Circuit.count_2q out.Reqisc.circuit)

(* ----------------------------------------------------- planner invariants *)

let test_face_equation_holds () =
  (* the chosen face's defining equation is tight at the optimal time *)
  for _ = 1 to 30 do
    let h = Microarch.Coupling.random rng in
    let c = Weyl.Kak.coords_of (Quantum.Haar.su4 rng) in
    let plan = Microarch.Tau.plan h c in
    let x, y, z = plan.Microarch.Tau.target_plus in
    let tau = plan.Microarch.Tau.tau in
    let lhs =
      match plan.Microarch.Tau.subscheme with
      | Microarch.Tau.ND -> x /. h.Microarch.Coupling.a
      | Microarch.Tau.EA_same ->
        (x +. y +. z)
        /. (h.Microarch.Coupling.a +. h.Microarch.Coupling.b +. h.Microarch.Coupling.c)
      | Microarch.Tau.EA_opposite ->
        (x +. y -. z)
        /. (h.Microarch.Coupling.a +. h.Microarch.Coupling.b -. h.Microarch.Coupling.c)
    in
    Alcotest.(check bool)
      (Printf.sprintf "face tight (lhs %.12g tau %.12g)" lhs tau)
      true
      (Float.abs (lhs -. tau) < 1e-9 *. (1.0 +. tau))
  done

let test_synthesis_tau_definition () =
  let h = Microarch.Coupling.xy ~g:1.0 in
  let c = Weyl.Coords.make 0.5 0.3 0.1 in
  let t = Microarch.Duration.synthesis_tau h Microarch.Duration.Sqisw c in
  let expected =
    float_of_int (Microarch.Duration.gates_needed Microarch.Duration.Sqisw c)
    *. Microarch.Duration.basis_gate_tau h Microarch.Duration.Sqisw
  in
  Alcotest.(check (float 1e-12)) "definition" expected t

(* --------------------------------------------------------------- formats *)

let test_qasm_three_qubit_unitary () =
  let g = Gate.make "blk" [| 0; 2; 1 |] Quantum.Gates.ccx in
  let c = Circuit.create 3 [ g ] in
  let c' = Expect.qasm (Qasm.to_string c) in
  Alcotest.(check bool) "roundtrip 3q unitary" true
    (Mat.allclose_up_to_phase ~tol:1e-10 (Circuit.unitary c) (Circuit.unitary c'))

let test_big_suite_instantiates () =
  let big = Benchmarks.Suite.suite ~big:true () in
  Alcotest.(check bool) "bigger than base" true
    (List.length big > List.length (Benchmarks.Suite.suite ()));
  List.iter
    (fun (b : Benchmarks.Suite.bench) ->
      match b.program with
      | Compiler.Pass.Gates c ->
        Alcotest.(check bool) (b.name ^ " nonempty") true (Circuit.gate_count c > 0)
      | Compiler.Pass.Pauli p ->
        Alcotest.(check bool) (b.name ^ " nonempty") true
          (List.length p.Compiler.Phoenix.terms > 0))
    big

let () =
  Alcotest.run "facade"
    [
      ( "reqisc",
        [
          Alcotest.test_case "compile + pulses" `Slow test_facade_compile_and_pulse;
          Alcotest.test_case "route" `Quick test_facade_route;
          Alcotest.test_case "route too wide" `Quick test_facade_route_too_wide;
          Alcotest.test_case "pauli" `Quick test_facade_pauli;
        ] );
      ( "planner",
        [
          Alcotest.test_case "face equation" `Quick test_face_equation_holds;
          Alcotest.test_case "synthesis tau" `Quick test_synthesis_tau_definition;
        ] );
      ( "formats",
        [
          Alcotest.test_case "3q unitary qasm" `Quick test_qasm_three_qubit_unitary;
          Alcotest.test_case "big suite" `Quick test_big_suite_instantiates;
        ] );
    ]
