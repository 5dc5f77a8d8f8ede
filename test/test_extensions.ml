(* Tests for the extension modules: the appendix (alpha, beta) EA
   parametrization, the variational fixed-basis rewrite, and the named 3Q
   IR library. *)

open Numerics

let rng = Rng.create 777L

let check_float ?(tol = 1e-9) msg expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s (expected %.10g, got %.10g)" msg expected actual)
    true
    (Float.abs (expected -. actual) <= tol)

(* ------------------------------------------------------------- ea_param *)

let test_rescale () =
  let h = Microarch.Coupling.xx ~g:1.0 in
  let k, a', eta = Microarch.Ea_param.rescale h in
  check_float "k" 1.0 k;
  check_float "a'" 1.0 a';
  check_float "eta" 1.0 eta;
  let h2 = Microarch.Coupling.make 1.0 0.5 0.25 in
  let k2, a2, eta2 = Microarch.Ea_param.rescale h2 in
  check_float "k2" (1.0 /. 0.75) k2;
  check_float "c' = a' - 1" (a2 -. 1.0) (k2 *. 0.25);
  check_float "eta2" (k2 *. 0.5) eta2;
  Alcotest.(check bool) "eta in [0,1]" true (eta2 >= 0.0 && eta2 <= 1.0)

let test_spectrum_matches_eigensolver () =
  (* the closed-form drives must produce exactly the parametrized spectrum *)
  List.iter
    (fun (a, b, c) ->
      let h = Microarch.Coupling.make a b c in
      let k, a', eta = Microarch.Ea_param.rescale h in
      for _ = 1 to 6 do
        let alpha = Rng.float rng 1.0 in
        let beta = Float.max (eta -. alpha) 0.0 +. Rng.float rng 2.0 in
        let omega', delta' = Microarch.Ea_param.drives_of ~eta (alpha, beta) in
        (* build the rescaled driven Hamiltonian directly *)
        let p =
          {
            Microarch.Genashn.tau = 1.0;
            subscheme = Microarch.Tau.EA_same;
            drive_x1 = omega' /. k;
            drive_x2 = omega' /. k;
            delta = delta' /. k;
          }
        in
        let hm = Mat.rsmul k (Microarch.Genashn.hamiltonian h p) in
        let w, _ = Eig.hermitian hm in
        let predicted = Microarch.Ea_param.spectrum ~a:a' ~eta (alpha, beta) in
        Array.iteri
          (fun i lam ->
            check_float ~tol:1e-8
              (Printf.sprintf "eig %d (a=%g b=%g c=%g alpha=%.3f beta=%.3f)" i a b c
                 alpha beta)
              predicted.(i) lam)
          w
      done)
    [ (1.0, 0.0, 0.0); (1.0, 0.6, 0.2); (0.8, 0.5, -0.3) ]

let test_alpha_beta_roundtrip () =
  let h = Microarch.Coupling.make 1.0 0.4 0.1 in
  let _, _, eta = Microarch.Ea_param.rescale h in
  for _ = 1 to 8 do
    let alpha = Rng.float rng 1.0 in
    let beta = Float.max (eta -. alpha) 0.0 +. Rng.float rng 2.0 in
    let k, _, _ = Microarch.Ea_param.rescale h in
    let omega', delta' = Microarch.Ea_param.drives_of ~eta (alpha, beta) in
    let alpha', beta' =
      Microarch.Ea_param.params_of h ~omega:(omega' /. k) ~delta:(delta' /. k)
    in
    check_float ~tol:1e-7 "alpha roundtrip" alpha alpha';
    check_float ~tol:1e-7 "beta roundtrip" beta beta'
  done

let test_swap_root_in_alpha_beta () =
  (* the Fig-4 minimal root of SWAP under XX, reported in the paper's
     coordinates, lies inside Q_eta *)
  let xxc = Microarch.Coupling.xx ~g:1.0 in
  let p = Expect.solved (Microarch.Genashn.solve_coords_r xxc Weyl.Coords.swap) in
  let alpha, beta =
    Microarch.Ea_param.params_of xxc ~omega:p.Microarch.Genashn.drive_x1
      ~delta:p.Microarch.Genashn.delta
  in
  let _, _, eta = Microarch.Ea_param.rescale xxc in
  Alcotest.(check bool)
    (Printf.sprintf "(%.4f, %.4f) in Q_%.1f" alpha beta eta)
    true
    (Microarch.Ea_param.in_domain ~eta (alpha, beta))

(* ----------------------------------------------------------- variational *)

let test_variational_single_gate () =
  let u = Quantum.Haar.su4 rng in
  let c = Circuit.create 2 [ Gate.su4 0 1 u ] in
  let out = Compiler.Variational.rewrite ~basis:Microarch.Duration.Sqisw rng c in
  Alcotest.(check bool)
    (Printf.sprintf "unitary preserved (dist %.2g)"
       (Mat.phase_dist (Circuit.unitary out) u))
    true
    (Mat.allclose_up_to_phase ~tol:1e-3 (Circuit.unitary out) u);
  Alcotest.(check int) "one distinct 2q class" 1 (Circuit.distinct_2q out);
  let k = Circuit.count_2q out in
  Alcotest.(check bool) (Printf.sprintf "2 or 3 sqisw (%d)" k) true (k = 2 || k = 3);
  List.iter
    (fun (g : Gate.t) ->
      if Gate.is_2q g then Alcotest.(check string) "label" "sqisw" g.label)
    out.Circuit.gates

let test_variational_circuit () =
  let r = Rng.create 31L in
  let c =
    Circuit.create 3
      (List.init 4 (fun _ ->
           let a = Rng.int r 3 in
           let b = (a + 1 + Rng.int r 2) mod 3 in
           Gate.su4 a b (Quantum.Haar.su4 r)))
  in
  let out = Compiler.Variational.rewrite ~basis:Microarch.Duration.B rng c in
  Alcotest.(check bool) "preserved" true
    (Mat.allclose_up_to_phase ~tol:1e-3 (Circuit.unitary out) (Circuit.unitary c));
  Alcotest.(check int) "one distinct class" 1 (Circuit.distinct_2q out);
  (* B basis: exactly 2 per haar gate *)
  Alcotest.(check int) "2 per gate" 8 (Circuit.count_2q out)

let test_variational_keeps_1q () =
  let c = Circuit.create 2 [ Gate.h 0; Gate.su4 0 1 Quantum.Gates.cnot; Gate.t 1 ] in
  let out = Compiler.Variational.rewrite rng c in
  Alcotest.(check bool) "preserved" true
    (Mat.allclose_up_to_phase ~tol:1e-4 (Circuit.unitary out) (Circuit.unitary c))

(* ----------------------------------------------------------------- ir3q *)

let test_ir3q_unitaries () =
  List.iter
    (fun (name, u) ->
      Alcotest.(check bool) (name ^ " unitary") true (Mat.is_unitary ~tol:1e-9 u);
      (* reference circuit reproduces the unitary *)
      let c = Circuit.create 3 (Compiler.Ir3q.circuit_of name) in
      Alcotest.(check bool) (name ^ " circuit matches") true
        (Mat.allclose_up_to_phase ~tol:1e-9 (Circuit.unitary c) u))
    Compiler.Ir3q.named

let test_ir3q_preload () =
  let lib = Compiler.Template.create_library (Rng.create 8L) in
  let report = Compiler.Ir3q.preload lib in
  Alcotest.(check int) "all named IRs synthesized" (List.length Compiler.Ir3q.named)
    (List.length report);
  List.iter
    (fun (name, k) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s uses %d su4 (<= 6)" name k)
        true
        (k <= 6 && k >= 1))
    report;
  (* library is now warm: a toffoli lookup is free *)
  let before = Compiler.Template.library_size lib in
  let _ = Compiler.Template.template_for lib Quantum.Gates.ccx in
  Alcotest.(check int) "no new synthesis" before (Compiler.Template.library_size lib)

let () =
  Alcotest.run "extensions"
    [
      ( "ea_param",
        [
          Alcotest.test_case "rescale" `Quick test_rescale;
          Alcotest.test_case "spectrum" `Quick test_spectrum_matches_eigensolver;
          Alcotest.test_case "roundtrip" `Quick test_alpha_beta_roundtrip;
          Alcotest.test_case "swap root" `Quick test_swap_root_in_alpha_beta;
        ] );
      ( "variational",
        [
          Alcotest.test_case "single gate" `Slow test_variational_single_gate;
          Alcotest.test_case "circuit" `Slow test_variational_circuit;
          Alcotest.test_case "keeps 1q" `Quick test_variational_keeps_1q;
        ] );
      ( "ir3q",
        [
          Alcotest.test_case "unitaries" `Quick test_ir3q_unitaries;
          Alcotest.test_case "preload" `Slow test_ir3q_preload;
        ] );
    ]
