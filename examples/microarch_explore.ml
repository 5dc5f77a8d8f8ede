(* Explore the genAshN microarchitecture: time-optimal durations, subscheme
   selection and drive profiles under different coupling Hamiltonians,
   including one that needs normal-form reduction first.

   Run with:  dune exec examples/microarch_explore.exe *)

open Numerics
open Microarch

let named =
  [
    ("CNOT", Quantum.Gates.cnot);
    ("iSWAP", Quantum.Gates.iswap);
    ("SQiSW", Quantum.Gates.sqisw);
    ("B", Quantum.Gates.b_gate);
    ("SWAP", Quantum.Gates.swap);
  ]

let show coupling label =
  Printf.printf "== %s (%s) ==\n" label
    (Format.asprintf "%a" Coupling.pp coupling);
  Printf.printf "%-7s %-5s %9s %9s %9s %9s %9s\n" "gate" "mode" "tau" "x1" "x2" "delta" "|err|";
  List.iter
    (fun (name, u) ->
      match Robust.Outcome.to_result (Genashn.solve_r coupling (Gate.su4 0 1 u)) with
      | Error e -> Printf.printf "%-7s failed: %s\n" name (Robust.Err.to_string e)
      | Ok r ->
        let p = r.Genashn.pulse in
        let err = Mat.frobenius_dist (Genashn.reconstruct r) u in
        Printf.printf "%-7s %-5s %9.4f %9.4f %9.4f %9.4f %9.1e\n" name
          (Tau.subscheme_to_string p.Genashn.subscheme)
          p.Genashn.tau p.Genashn.drive_x1 p.Genashn.drive_x2 p.Genashn.delta err)
    named;
  print_newline ()

let () =
  show (Coupling.xy ~g:1.0) "XY coupling";
  show (Coupling.xx ~g:1.0) "XX coupling";
  show (Coupling.make 0.55 0.35 (-0.10)) "anisotropic coupling";

  (* a lab-frame Hamiltonian with local terms: reduce to normal form first *)
  let messy =
    let open Mat in
    let zi = kron (Quantum.Pauli.matrix_1q Quantum.Pauli.Z) (identity 2) in
    let iz = kron (identity 2) (Quantum.Pauli.matrix_1q Quantum.Pauli.Z) in
    add
      (add (rsmul 0.8 Quantum.Pauli.xx) (rsmul (-0.35) zi))
      (rsmul 0.2 iz)
  in
  let nf = Coupling.normal_form messy in
  Printf.printf "normal form of the lab-frame Hamiltonian: %s (residual 1Q terms |h1|=%.3f |h2|=%.3f)\n\n"
    (Format.asprintf "%a" Coupling.pp nf.Coupling.canonical)
    (Mat.frobenius_norm nf.Coupling.h1) (Mat.frobenius_norm nf.Coupling.h2);
  show nf.Coupling.canonical "reduced lab-frame coupling";

  (* drive amplitudes along the B-gate family, Fig. 6(d) style *)
  Printf.printf "== B-gate family B^s ~ Can(s pi/4, s pi/8, 0) under XY ==\n";
  Printf.printf "%-6s %9s %9s %9s %9s\n" "s" "tau" "A1" "A2" "delta";
  let xy = Coupling.xy ~g:1.0 in
  List.iter
    (fun s ->
      let c = Weyl.Coords.make (s *. Float.pi /. 4.0) (s *. Float.pi /. 8.0) 0.0 in
      match Robust.Outcome.to_result (Genashn.solve_coords_r xy c) with
      | Error e -> Printf.printf "%-6.2f %s\n" s (Robust.Err.to_string e)
      | Ok p ->
        let a1, a2 = Genashn.amplitudes p in
        Printf.printf "%-6.2f %9.4f %9.4f %9.4f %9.4f\n" s p.Genashn.tau a1 a2
          p.Genashn.delta)
    [ 0.3; 0.5; 0.7; 0.9; 1.0 ]
