(* Tests for the hardware-facing extensions: Euler/U3 emission, the
   {Can, U3} ISA output form, and the simulated calibration loop. *)

open Numerics

let rng = Rng.create 909L

let check_phase ?(tol = 1e-8) msg expected actual =
  Alcotest.(check bool)
    (msg ^ " (phase dist " ^ string_of_float (Mat.phase_dist expected actual) ^ ")")
    true
    (Mat.allclose_up_to_phase ~tol expected actual)

(* ---------------------------------------------------------------- euler *)

let test_zyz_roundtrip () =
  for _ = 1 to 25 do
    let u = Quantum.Haar.unitary rng 2 in
    let d = Quantum.Euler.zyz u in
    Alcotest.(check bool) "exact reconstruction" true
      (Mat.equal ~tol:1e-9 (Quantum.Euler.reconstruct d) u)
  done

let test_zyz_named () =
  List.iter
    (fun (name, g, expect_theta) ->
      let d = Quantum.Euler.zyz g in
      Alcotest.(check (float 1e-9)) (name ^ " theta") expect_theta d.Quantum.Euler.theta;
      check_phase (name ^ " via u3") g (Quantum.Euler.to_u3 d))
    [
      ("h", Quantum.Gates.h, Float.pi /. 2.0);
      ("x", Quantum.Gates.x, Float.pi);
      ("s", Quantum.Gates.s, 0.0);
      ("ry(0.7)", Quantum.Gates.ry 0.7, 0.7);
    ]

let test_zyz_rejects () =
  let not_unitary = Mat.of_real_arrays [| [| 1.0; 1.0 |]; [| 0.0; 1.0 |] |] in
  Alcotest.check_raises "non-unitary"
    (Invalid_argument "Euler.zyz: need a 2x2 unitary") (fun () ->
      ignore (Quantum.Euler.zyz not_unitary))

(* ------------------------------------------------------------- can isa *)

let test_su4_to_can () =
  for _ = 1 to 10 do
    let u = Quantum.Haar.su4 rng in
    let gates = Decomp.su4_to_can (Gate.su4 0 1 u) in
    let c = Circuit.create 2 gates in
    check_phase ~tol:1e-7 "can isa reproduces" u (Circuit.unitary c);
    (* exactly one 2q gate, labeled can *)
    let twoq = List.filter Gate.is_2q gates in
    Alcotest.(check int) "one can" 1 (List.length twoq);
    List.iter
      (fun (g : Gate.t) ->
        Alcotest.(check bool) "label can" true (String.sub g.label 0 3 = "can"))
      twoq;
    (* all 1q gates are u3 *)
    List.iter
      (fun (g : Gate.t) ->
        if Gate.arity g = 1 then
          Alcotest.(check bool) "label u3" true (String.sub g.label 0 3 = "u3("))
      gates
  done

let test_to_can_isa_circuit () =
  let out = Expect.ok (Reqisc.compile (Rng.create 3L) (Benchmarks.Generators.tof 4)) in
  let su4_c = out.Reqisc.circuit in
  let can_c = Decomp.to_can_isa su4_c in
  check_phase ~tol:1e-6 "isa emission preserves" (Circuit.unitary su4_c)
    (Circuit.unitary can_c);
  Alcotest.(check int) "same #2q" (Circuit.count_2q su4_c) (Circuit.count_2q can_c);
  List.iter
    (fun (g : Gate.t) ->
      let l = g.Gate.label in
      Alcotest.(check bool)
        ("gate " ^ l ^ " in {can,u3}")
        true
        ((Gate.is_2q g && String.length l >= 3 && String.sub l 0 3 = "can")
        || (Gate.arity g = 1 && String.length l >= 3 && String.sub l 0 3 = "u3(")))
    can_c.Circuit.gates

(* ------------------------------------------------------------ tomography *)

let test_calibration_closes_model_error () =
  (* the controller's model is 4% off in coupling strength *)
  let model = Microarch.Coupling.xy ~g:1.0 in
  let device = { Microarch.Tomography.true_coupling = Microarch.Coupling.xy ~g:1.04 } in
  let target = Weyl.Coords.cnot in
  let tuned, initial, final = Expect.ok (Microarch.Tomography.calibrate device ~model target) in
  Alcotest.(check bool)
    (Printf.sprintf "initial miss is visible (%.2g)" initial)
    true (initial > 1e-3);
  Alcotest.(check bool)
    (Printf.sprintf "calibration closes the gap (%.2g -> %.2g)" initial final)
    true
    (final < 1e-6);
  let f =
    Microarch.Tomography.corrected_fidelity device tuned Quantum.Gates.cnot
  in
  Alcotest.(check bool) (Printf.sprintf "fidelity %.8f" f) true (f > 0.999999)

let test_calibration_anisotropic_model_error () =
  (* the device has a stray ZZ term the model does not know about *)
  let model = Microarch.Coupling.xy ~g:1.0 in
  let device =
    { Microarch.Tomography.true_coupling = Microarch.Coupling.make 0.5 0.5 0.03 }
  in
  let target = Weyl.Coords.make 0.6 0.3 0.1 in
  let _, initial, final = Expect.ok (Microarch.Tomography.calibrate device ~model target) in
  Alcotest.(check bool)
    (Printf.sprintf "improves (%.2g -> %.2g)" initial final)
    true
    (final < initial /. 5.0)

let test_perfect_model_needs_no_tuning () =
  let model = Microarch.Coupling.xy ~g:1.0 in
  let device = { Microarch.Tomography.true_coupling = model } in
  let _, initial, final = Expect.ok (Microarch.Tomography.calibrate device ~model Weyl.Coords.iswap) in
  Alcotest.(check bool) "already calibrated" true (initial < 1e-7 && final <= initial +. 1e-12)

(* appended: qutrit leakage model tests *)
let test_transmon_unitary () =
  let xy = Microarch.Coupling.xy ~g:1.0 in
  let p = Expect.solved (Microarch.Genashn.solve_coords_r xy Weyl.Coords.cnot) in
  let params = { Microarch.Transmon.anharmonicity = -30.0; g = 1.0 } in
  let u = Microarch.Transmon.evolve params p in
  Alcotest.(check bool) "9x9 unitary" true (Mat.is_unitary ~tol:1e-7 u);
  Alcotest.(check bool) "hermitian generator" true
    (Mat.is_hermitian (Microarch.Transmon.hamiltonian params p))

let test_transmon_leakage_decreases () =
  let xy = Microarch.Coupling.xy ~g:1.0 in
  let p = Expect.solved (Microarch.Genashn.solve_coords_r xy Weyl.Coords.swap) in
  let leak alpha =
    Microarch.Transmon.leakage { Microarch.Transmon.anharmonicity = alpha; g = 1.0 } p
  in
  let l10 = leak (-10.0) and l40 = leak (-40.0) and l150 = leak (-150.0) in
  Alcotest.(check bool)
    (Printf.sprintf "monotone-ish (%.2e > %.2e > %.2e)" l10 l40 l150)
    true
    (l10 > l40 && l40 > l150);
  Alcotest.(check bool) "small at realistic anharmonicity" true (l40 < 0.02)

let test_transmon_fidelity_limit () =
  let xy = Microarch.Coupling.xy ~g:1.0 in
  let p = Expect.solved (Microarch.Genashn.solve_coords_r xy Weyl.Coords.b_gate) in
  let f =
    Microarch.Transmon.model_fidelity
      { Microarch.Transmon.anharmonicity = -2000.0; g = 1.0 }
      p
  in
  Alcotest.(check bool) (Printf.sprintf "two-level limit (%.6f)" f) true (f > 0.9999)

let test_transmon_undriven_leakage_tiny () =
  (* with no drives (iSWAP family) the only leakage channel is the coupling
     itself: it conserves total excitation and |11> <-> |02>/|20> mixing is
     suppressed by the anharmonicity gap *)
  let xy = Microarch.Coupling.xy ~g:1.0 in
  let p = Expect.solved (Microarch.Genashn.solve_coords_r xy Weyl.Coords.iswap) in
  let l =
    Microarch.Transmon.leakage { Microarch.Transmon.anharmonicity = -30.0; g = 1.0 } p
  in
  Alcotest.(check bool) (Printf.sprintf "iswap leakage %.2e" l) true (l < 5e-3)

let () =
  Alcotest.run "hardware"
    [
      ( "euler",
        [
          Alcotest.test_case "roundtrip" `Quick test_zyz_roundtrip;
          Alcotest.test_case "named gates" `Quick test_zyz_named;
          Alcotest.test_case "rejects" `Quick test_zyz_rejects;
        ] );
      ( "can isa",
        [
          Alcotest.test_case "su4 to can" `Quick test_su4_to_can;
          Alcotest.test_case "whole circuit" `Slow test_to_can_isa_circuit;
        ] );
      ( "tomography",
        [
          Alcotest.test_case "closes model error" `Quick test_calibration_closes_model_error;
          Alcotest.test_case "anisotropic error" `Quick test_calibration_anisotropic_model_error;
          Alcotest.test_case "perfect model" `Quick test_perfect_model_needs_no_tuning;
        ] );
      ( "transmon",
        [
          Alcotest.test_case "unitary" `Quick test_transmon_unitary;
          Alcotest.test_case "leakage decreases" `Quick test_transmon_leakage_decreases;
          Alcotest.test_case "two-level limit" `Quick test_transmon_fidelity_limit;
          Alcotest.test_case "undriven iswap" `Quick test_transmon_undriven_leakage_tiny;
        ] );
    ]
