type basis = Cnot | Iswap | Sqisw | B

let basis_to_string = function
  | Cnot -> "CNOT"
  | Iswap -> "iSWAP"
  | Sqisw -> "SQiSW"
  | B -> "B"

let basis_coords = function
  | Cnot -> Weyl.Coords.cnot
  | Iswap -> Weyl.Coords.iswap
  | Sqisw -> Weyl.Coords.sqisw
  | B -> Weyl.Coords.b_gate

let tau_su4 = Tau.tau_opt
let basis_gate_tau h b = tau_su4 h (basis_coords b)

let is_identity c = Weyl.Coords.norm1 c < 1e-9

let gates_needed b (c : Weyl.Coords.t) =
  if is_identity c then 0
  else if Weyl.Coords.equal ~tol:1e-9 c (basis_coords b) then 1
  else
    match b with
    | Cnot | Iswap ->
      (* two applications reach exactly the z = 0 plane *)
      if Float.abs c.z < 1e-9 then 2 else 3
    | Sqisw ->
      (* Huang et al.: two SQiSW reach the polytope x >= y + |z| *)
      if c.x >= c.y +. Float.abs c.z -. 1e-12 then 2 else 3
    | B -> 2

let synthesis_tau h b c = float_of_int (gates_needed b c) *. basis_gate_tau h b

let conventional_cnot_tau ~g = Float.pi /. (sqrt 2.0 *. g)

let haar_average_par ?domains ~n ~seed f =
  (* per-index rngs keep the result identical for any domain count *)
  let total =
    Numerics.Par.parallel_sum ?domains n (fun i ->
        let rng = Numerics.Rng.create (Int64.add seed (Int64.of_int i)) in
        f (Weyl.Kak.coords_of (Quantum.Haar.su4 rng)))
  in
  total /. float_of_int n
