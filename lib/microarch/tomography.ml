open Numerics

type device = { true_coupling : Coupling.t }

let realized device pulse = Genashn.evolve device.true_coupling pulse
let measured_coords device pulse = Weyl.Kak.coords_of (realized device pulse)

let calibrate ?(max_iter = 400) device ~model target =
  match Robust.Outcome.to_result (Genashn.solve_coords_r model target) with
  | Error e -> Error e
  | Ok p0 ->
    let dist_of (p : Genashn.pulse) = Weyl.Coords.dist (measured_coords device p) target in
    let initial = dist_of p0 in
    let pulse_of v =
      {
        p0 with
        Genashn.drive_x1 = v.(0);
        drive_x2 = v.(1);
        delta = v.(2);
        tau = Float.abs v.(3);
      }
    in
    let objective v = dist_of (pulse_of v) in
    let v0 = [| p0.Genashn.drive_x1; p0.Genashn.drive_x2; p0.Genashn.delta; p0.Genashn.tau |] in
    let v, _ = Optimize.nelder_mead ~step:0.05 ~max_iter objective v0 in
    let tuned = pulse_of v in
    Ok (tuned, initial, dist_of tuned)

let corrected_fidelity device pulse target_u =
  let w = realized device pulse in
  let dw = Weyl.Kak.decompose w and du = Weyl.Kak.decompose target_u in
  (* experimentally free 1Q corrections transplant w's locals onto u's *)
  let corrected =
    Mat.mul3
      (Mat.kron (Mat.mul du.Weyl.Kak.a1 (Mat.dagger dw.Weyl.Kak.a1))
         (Mat.mul du.Weyl.Kak.a2 (Mat.dagger dw.Weyl.Kak.a2)))
      w
      (Mat.kron (Mat.mul (Mat.dagger dw.Weyl.Kak.b1) du.Weyl.Kak.b1)
         (Mat.mul (Mat.dagger dw.Weyl.Kak.b2) du.Weyl.Kak.b2))
  in
  Quantum.Fidelity.trace_fidelity corrected target_u
