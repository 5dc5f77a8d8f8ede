(* Tests for the text formats (REQASM, RevLib .real), the pulse scheduler,
   the calibration model and the decoherence noise extension. *)

open Numerics

let rng = Rng.create 4242L

let check_phase ?(tol = 1e-9) msg expected actual =
  Alcotest.(check bool)
    (msg ^ " (phase dist " ^ string_of_float (Mat.phase_dist expected actual) ^ ")")
    true
    (Mat.allclose_up_to_phase ~tol expected actual)

(* ----------------------------------------------------------------- qasm *)

let test_qasm_roundtrip_named () =
  let c =
    Circuit.create 3
      [ Gate.h 0; Gate.cx 0 1; Gate.ccx 0 1 2; Gate.t 2; Gate.swap 1 2; Gate.sdg 0 ]
  in
  let s = Qasm.to_string c in
  let c' = Expect.qasm s in
  Alcotest.(check int) "same width" c.Circuit.n c'.Circuit.n;
  Alcotest.(check int) "same gate count" (Circuit.gate_count c) (Circuit.gate_count c');
  check_phase "same unitary" (Circuit.unitary c) (Circuit.unitary c')

let test_qasm_roundtrip_parametrized () =
  (* parametrized and matrix gates go through the exact unitary(...) form *)
  let c =
    Circuit.create 2
      [
        Gate.rz 0 0.12345678901234;
        Gate.su4 0 1 (Quantum.Haar.su4 rng);
        Gate.can 0 1 0.4 0.3 0.1;
        Gate.u3 1 0.1 0.2 0.3;
      ]
  in
  let c' = Expect.qasm (Qasm.to_string c) in
  check_phase ~tol:1e-12 "exact roundtrip" (Circuit.unitary c) (Circuit.unitary c')

let test_qasm_handwritten () =
  let src =
    "REQASM 1.0;\nqreg q[2];\n// comment line\nh q[0];\nrz(1.5707963267948966) \
     q[1];\ncan(0.5,0.3,0.1) q[0],q[1];\ncp(0.25) q[0],q[1];\n"
  in
  let c = Expect.qasm src in
  Alcotest.(check int) "4 gates" 4 (Circuit.gate_count c);
  let expected =
    Circuit.create 2
      [ Gate.h 0; Gate.rz 1 (Float.pi /. 2.0); Gate.can 0 1 0.5 0.3 0.1; Gate.cphase 0 1 0.25 ]
  in
  check_phase "parsed semantics" (Circuit.unitary expected) (Circuit.unitary c)

let test_qasm_errors () =
  List.iter
    (fun src ->
      match Qasm.parse src with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail ("accepted malformed input: " ^ src))
    [
      "qreg q[2];\nfrobnicate q[0];\n";
      "qreg q[2];\nu3(0.1) q[0];\n";
      "h q[0];\n" (* missing qreg *);
    ]

let test_qasm_compiled_circuit () =
  (* a full compiled circuit (su4 gates) round-trips *)
  let out = Expect.ok (Reqisc.compile (Rng.create 1L) (Benchmarks.Generators.tof 4)) in
  let c = out.Reqisc.circuit in
  let c' = Expect.qasm (Qasm.to_string c) in
  check_phase ~tol:1e-12 "compiled roundtrip" (Circuit.unitary c) (Circuit.unitary c')

(* ----------------------------------------------------------------- real *)

let test_real_roundtrip () =
  let c =
    Circuit.create 4 [ Gate.x 0; Gate.cx 0 1; Gate.ccx 1 2 3; Gate.cswap 0 1 2 ]
  in
  let c' = Benchmarks.Real_format.of_string (Benchmarks.Real_format.to_string c) in
  check_phase "roundtrip" (Circuit.unitary c) (Circuit.unitary c')

let test_real_parse_revlib_style () =
  let src =
    "# a RevLib-style file\n.version 2.0\n.numvars 5\n.variables a b c d e\n.inputs a \
     b c d e\n.begin\nt1 a\nt2 a b\nt3 a b c\nt4 a b c d\nf3 a b c\n.end\n"
  in
  let c = Benchmarks.Real_format.of_string src in
  Alcotest.(check int) "width" 5 c.Circuit.n;
  (* the t4 gate decomposes into ccx gates with a borrowed line *)
  Alcotest.(check bool) "only <=3q gates" true (Circuit.max_arity c <= 3);
  (* verify the t4 semantics against a direct mcx *)
  let direct =
    Circuit.create 5
      ([ Gate.x 0; Gate.cx 0 1; Gate.ccx 0 1 2 ]
      @ Decomp.mcx ~controls:[ 0; 1; 2 ] ~target:3 ~avail:[ 4 ]
      @ [ Gate.cswap 0 1 2 ])
  in
  check_phase "semantics" (Circuit.unitary direct) (Circuit.unitary c)

let test_real_rejects_bad () =
  List.iter
    (fun src ->
      match Benchmarks.Real_format.of_string src with
      | exception Failure _ -> ()
      | _ -> Alcotest.fail ("accepted malformed input: " ^ src))
    [
      ".numvars 2\n.begin\nt3 x0 x1\n.end\n" (* operand mismatch *);
      ".begin\nt1 x0\n.end\n" (* missing numvars *);
    ]

let test_real_through_compiler () =
  (* parse a .real file and compile it end to end *)
  let src = ".numvars 4\n.variables w x y z\n.begin\nt3 w x y\nt2 y z\nt3 x y z\n.end\n" in
  let c = Benchmarks.Real_format.of_string src in
  let out = Expect.ok (Reqisc.compile (Rng.create 2L) c) in
  Alcotest.(check bool) "produced 2q circuit" true
    (Circuit.max_arity out.Reqisc.circuit <= 2)

(* ------------------------------------------------------------- schedule *)

let test_schedule_sequential () =
  let xy = Microarch.Coupling.xy ~g:1.0 in
  let c = Circuit.create 2 [ Gate.cx 0 1; Gate.cx 0 1 ] in
  let s = Expect.ok (Microarch.Schedule.schedule xy c) in
  Alcotest.(check int) "2 pulses" 2 (List.length s.Microarch.Schedule.events);
  Alcotest.(check (float 1e-9)) "makespan = 2 tau" Float.pi s.Microarch.Schedule.makespan;
  (match s.Microarch.Schedule.events with
  | [ e1; e2 ] ->
    Alcotest.(check (float 1e-9)) "first starts at 0" 0.0 e1.Microarch.Schedule.start;
    Alcotest.(check (float 1e-9)) "second starts after first" (Float.pi /. 2.0)
      e2.Microarch.Schedule.start
  | _ -> Alcotest.fail "wrong event count")

let test_schedule_parallel () =
  let xy = Microarch.Coupling.xy ~g:1.0 in
  let c = Circuit.create 4 [ Gate.cx 0 1; Gate.cx 2 3 ] in
  let s = Expect.ok (Microarch.Schedule.schedule xy c) in
  Alcotest.(check (float 1e-9)) "parallel makespan = 1 tau" (Float.pi /. 2.0)
    s.Microarch.Schedule.makespan;
  List.iter
    (fun e -> Alcotest.(check (float 1e-9)) "both start at 0" 0.0 e.Microarch.Schedule.start)
    s.Microarch.Schedule.events

let test_schedule_matches_duration_metric () =
  let xy = Microarch.Coupling.xy ~g:1.0 in
  let out = Expect.ok (Reqisc.compile (Rng.create 3L) (Benchmarks.Generators.tof 4)) in
  let c = out.Reqisc.circuit in
  let s = Expect.ok (Microarch.Schedule.schedule xy c) in
  let metric =
    (Compiler.Metrics.report (Compiler.Metrics.Su4_isa xy) c).Compiler.Metrics.duration
  in
  Alcotest.(check (float 1e-6)) "makespan = duration metric" metric
    s.Microarch.Schedule.makespan

(* the export_formats program: event starts and makespan pinned by float
   bits, and equal to the shared schedule's 2Q slots *)
let test_schedule_bits () =
  let xy = Microarch.Coupling.xy ~g:1.0 in
  let adder = Benchmarks.Generators.ripple_add 2 in
  let out = Expect.ok (Reqisc.compile ~mode:Reqisc.Eff (Rng.create 1L) adder) in
  let s = Expect.ok (Microarch.Schedule.schedule xy out.Reqisc.circuit) in
  let starts =
    String.concat ";"
      (List.map
         (fun (e : Microarch.Schedule.event) ->
           Printf.sprintf "%d,%d@%Lx" (fst e.qubits) (snd e.qubits)
             (Int64.bits_of_float e.start))
         s.Microarch.Schedule.events)
  in
  Alcotest.(check string) "makespan bits" "403a4ff637606534"
    (Printf.sprintf "%Lx" (Int64.bits_of_float s.Microarch.Schedule.makespan));
  Alcotest.(check string) "event starts md5" "31cddec6664c6b5f8a47cc0a024ca537"
    (Digest.to_hex (Digest.string starts));
  (* the events are the 2Q slots of the shared schedule under each gate's
     own pulse duration, ordered by start *)
  let tau (g : Gate.t) =
    if not (Gate.is_2q g) then 0.0
    else
      (Expect.solved
         (Microarch.Genashn.solve_coords_r xy (Weyl.Kak.coords_of g.Gate.mat)))
        .Microarch.Genashn.tau
  in
  let slots, makespan = Circuit.schedule ~tau out.Reqisc.circuit in
  let expected =
    List.stable_sort
      (fun (a : Circuit.slot) (b : Circuit.slot) -> compare a.start b.start)
      (List.filter (fun (sl : Circuit.slot) -> Gate.is_2q sl.gate) slots)
  in
  Alcotest.(check int) "one event per 2Q slot" (List.length expected)
    (List.length s.Microarch.Schedule.events);
  List.iter2
    (fun (sl : Circuit.slot) (e : Microarch.Schedule.event) ->
      Alcotest.(check (pair int int)) "qubits"
        (sl.gate.Gate.qubits.(0), sl.gate.Gate.qubits.(1))
        e.Microarch.Schedule.qubits;
      Alcotest.(check int64) "start bits" (Int64.bits_of_float sl.start)
        (Int64.bits_of_float e.Microarch.Schedule.start))
    expected s.Microarch.Schedule.events;
  Alcotest.(check int64) "makespan" (Int64.bits_of_float makespan)
    (Int64.bits_of_float s.Microarch.Schedule.makespan)

(* ----------------------------------------------------------- calibration *)

let test_calibration_counts () =
  let c =
    Circuit.create 3
      [
        Gate.cx 0 1;
        Gate.cx 1 2;
        (* same class *)
        Gate.can 0 1 0.4 0.2 0.0;
        Gate.can 1 2 0.2 0.1 0.0;
        (* same family (scaled ray), different class *)
        Gate.swap 0 2;
      ]
  in
  let cost = Microarch.Calibration.estimate c in
  Alcotest.(check int) "distinct classes" 4 cost.Microarch.Calibration.distinct_classes;
  Alcotest.(check int) "families" 3 cost.Microarch.Calibration.families;
  (* model-based generation is cheaper than naive per-gate calibration *)
  let naive =
    Microarch.Calibration.estimate
      ~policy:{ Microarch.Calibration.default_policy with model_based = false }
      c
  in
  Alcotest.(check bool) "model-based cheaper" true
    (cost.Microarch.Calibration.experiments < naive.Microarch.Calibration.experiments)

let test_calibration_scales_with_distinct () =
  let single = Circuit.create 2 [ Gate.cx 0 1; Gate.cx 0 1; Gate.cx 0 1 ] in
  let varied =
    Circuit.create 2
      [ Gate.cx 0 1; Gate.swap 0 1; Gate.iswap 0 1; Gate.can 0 1 0.3 0.2 0.1 ]
  in
  let cs = Microarch.Calibration.estimate single in
  let cv = Microarch.Calibration.estimate varied in
  Alcotest.(check bool) "more classes cost more" true
    (cv.Microarch.Calibration.experiments > cs.Microarch.Calibration.experiments)

(* ------------------------------------------------------------ decoherence *)

let test_decoherence_time_matters () =
  (* same circuit, same gate errors: the slow schedule loses more fidelity *)
  let c =
    Circuit.create 3
      (List.concat (List.init 4 (fun _ -> [ Gate.h 0; Gate.cx 0 1; Gate.cx 1 2 ])))
  in
  let params = { Noise.Decoherence.t1 = 120.0; t2 = 80.0 } in
  let fid scale seed =
    Noise.Decoherence.program_fidelity (Rng.create seed) params
      ~tau:(fun g -> if Gate.is_2q g then scale else 0.0)
      ~gate_error:(fun _ -> 0.0)
      ~trajectories:250 c
  in
  let fast = fid 1.0 1L and slow = fid 6.0 1L in
  Alcotest.(check bool)
    (Printf.sprintf "slower schedule hurts (%.4f vs %.4f)" fast slow)
    true (slow < fast);
  Alcotest.(check bool) "fidelity sane" true (fast <= 1.0 +. 1e-9 && slow >= 0.0)

let test_decoherence_no_noise_limit () =
  let c = Circuit.create 2 [ Gate.h 0; Gate.cx 0 1 ] in
  let params = { Noise.Decoherence.t1 = 1e12; t2 = 1e12 } in
  let f =
    Noise.Decoherence.program_fidelity (Rng.create 2L) params
      ~tau:(fun _ -> 1.0)
      ~gate_error:(fun _ -> 0.0)
      ~trajectories:20 c
  in
  Alcotest.(check (float 1e-6)) "infinite T1/T2 = ideal" 1.0 f

let () =
  Alcotest.run "formats_and_extensions"
    [
      ( "qasm",
        [
          Alcotest.test_case "roundtrip named" `Quick test_qasm_roundtrip_named;
          Alcotest.test_case "roundtrip parametrized" `Quick test_qasm_roundtrip_parametrized;
          Alcotest.test_case "handwritten" `Quick test_qasm_handwritten;
          Alcotest.test_case "errors" `Quick test_qasm_errors;
          Alcotest.test_case "compiled circuit" `Slow test_qasm_compiled_circuit;
        ] );
      ( "real",
        [
          Alcotest.test_case "roundtrip" `Quick test_real_roundtrip;
          Alcotest.test_case "revlib style" `Quick test_real_parse_revlib_style;
          Alcotest.test_case "rejects bad" `Quick test_real_rejects_bad;
          Alcotest.test_case "through compiler" `Slow test_real_through_compiler;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "sequential" `Quick test_schedule_sequential;
          Alcotest.test_case "parallel" `Quick test_schedule_parallel;
          Alcotest.test_case "matches metric" `Slow test_schedule_matches_duration_metric;
          Alcotest.test_case "start bits" `Slow test_schedule_bits;
        ] );
      ( "calibration",
        [
          Alcotest.test_case "counts" `Quick test_calibration_counts;
          Alcotest.test_case "scales" `Quick test_calibration_scales_with_distinct;
        ] );
      ( "decoherence",
        [
          Alcotest.test_case "time matters" `Quick test_decoherence_time_matters;
          Alcotest.test_case "no-noise limit" `Quick test_decoherence_no_noise_limit;
        ] );
    ]
