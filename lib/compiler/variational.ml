open Numerics

let basis_matrix = function
  | Microarch.Duration.Cnot -> Quantum.Gates.cnot
  | Microarch.Duration.Iswap -> Quantum.Gates.iswap
  | Microarch.Duration.Sqisw -> Quantum.Gates.sqisw
  | Microarch.Duration.B -> Quantum.Gates.b_gate

let basis_label b = String.lowercase_ascii (Microarch.Duration.basis_to_string b)

(* template: 1Q layer, then [count] x (fixed basis gate + 1Q pair) *)
let template basis count =
  let fixed = Gate.make (basis_label basis) [| 0; 1 |] (basis_matrix basis) in
  Synth.Free1q 0 :: Synth.Free1q 1
  :: List.concat (List.init count (fun _ -> [ Synth.Fixed fixed; Synth.Free1q 0; Synth.Free1q 1 ]))

(* One bar for the search and the acceptance: [Synth.optimize] returns
   below [tol] only from a restart that converged, so an accepted result
   never depends on where the stall rule stopped an unconverged one. *)
let synth_tol = 1e-9

let synth_one rng basis (u : Mat.t) =
  let coords = Weyl.Kak.coords_of u in
  let start = Microarch.Duration.gates_needed basis coords in
  let rec attempt count =
    if count > start + 2 then None
    else begin
      let gates, inf =
        Synth.optimize ~restarts:(4 + count) ~tol:synth_tol rng ~n:2 ~target:u
          (template basis count)
      in
      if inf < synth_tol then Some gates else attempt (count + 1)
    end
  in
  attempt start

let rewrite ?(basis = Microarch.Duration.Sqisw) rng (c : Circuit.t) =
  let cache : (string, Gate.t list option) Hashtbl.t = Hashtbl.create 32 in
  let gates =
    List.concat_map
      (fun (g : Gate.t) ->
        if not (Gate.is_2q g) then [ g ]
        else begin
          let key = Template.fingerprint g.mat in
          let synth =
            match Hashtbl.find_opt cache key with
            | Some r -> r
            | None ->
              let r = synth_one rng basis g.mat in
              Hashtbl.add cache key r;
              r
          in
          match synth with
          | Some local_gates ->
            let a = g.qubits.(0) and b = g.qubits.(1) in
            List.map (Gate.remap (fun q -> if q = 0 then a else b)) local_gates
          | None -> [ g ] (* keep the original gate if synthesis failed *)
        end)
      c.gates
  in
  Circuit.create c.n gates
