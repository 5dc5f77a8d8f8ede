open Numerics

let rescale (h : Coupling.t) =
  let fail e = invalid_arg (Printf.sprintf "Ea_param.rescale: %s" (Robust.Err.to_string e)) in
  let denom = h.a -. h.c in
  if not (Float.is_finite denom) then
    fail (Robust.Err.Nan_detected { stage = "ea_param"; site = "coupling" })
  else if denom < 1e-12 then
    fail
      (Robust.Err.Invalid_hamiltonian
         { stage = "ea_param"; detail = "isotropic coupling (a = c): rescale undefined" })
  else begin
    let k = 1.0 /. denom in
    let a' = k *. h.a in
    let eta = k *. (h.a -. h.b) in
    (k, a', eta)
  end

let in_domain ~eta (alpha, beta) =
  alpha >= -1e-12 && alpha <= 1.0 +. 1e-12 && beta >= -1e-12
  && alpha +. beta >= eta -. 1e-12

let drives_of ~eta (alpha, beta) =
  let fail e = invalid_arg (Printf.sprintf "Ea_param.drives_of: %s" (Robust.Err.to_string e)) in
  if not (Float.is_finite alpha && Float.is_finite beta && Float.is_finite eta) then
    fail (Robust.Err.Nan_detected { stage = "ea_param"; site = "drives_of" })
  else if not (in_domain ~eta (alpha, beta)) then
    fail
      (Robust.Err.Ill_conditioned
         { stage = "ea_param"; detail = "(alpha, beta) outside the domain Q_eta" })
  else begin
    let clamp x = Float.max 0.0 x in
    let omega = sqrt (clamp ((1.0 -. alpha) *. beta *. (1.0 -. eta +. alpha +. beta))) in
    let delta = sqrt (clamp (alpha *. (1.0 +. beta) *. (alpha +. beta -. eta))) in
    (omega, delta)
  end

let spectrum ~a ~eta (alpha, beta) =
  let s =
    [|
      1.0 +. eta -. (3.0 *. a);
      a +. eta -. 1.0 -. (2.0 *. (alpha +. beta));
      a -. 1.0 -. eta +. (2.0 *. alpha);
      a +. 1.0 -. eta +. (2.0 *. beta);
    |]
  in
  Array.sort compare s;
  s

let params_of (h : Coupling.t) ~omega ~delta =
  let k, a', eta = rescale h in
  (* rescaled driven Hamiltonian: energies scale by k *)
  let p =
    {
      Genashn.tau = 1.0;
      subscheme = Tau.EA_same;
      drive_x1 = omega;
      drive_x2 = omega;
      delta;
    }
  in
  let hm = Mat.rsmul k (Genashn.hamiltonian h p) in
  let w, _ = Eig.hermitian hm in
  (* remove the singlet eigenvalue 1 + eta - 3a', then read the middle and
     top roots of the residual cubic *)
  let singlet = 1.0 +. eta -. (3.0 *. a') in
  let idx = ref (-1) and best = ref infinity in
  Array.iteri
    (fun i v ->
      let d = Float.abs (v -. singlet) in
      if d < !best then begin
        best := d;
        idx := i
      end)
    w;
  let rest = Array.of_list (List.filteri (fun i _ -> i <> !idx) (Array.to_list w)) in
  Array.sort compare rest;
  (* rest = [lambda_min; lambda_mid; lambda_max] *)
  let alpha = (rest.(1) -. (a' -. 1.0 -. eta)) /. 2.0 in
  let beta = (rest.(2) -. (a' +. 1.0 -. eta)) /. 2.0 in
  (alpha, beta)
