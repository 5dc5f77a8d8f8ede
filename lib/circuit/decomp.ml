open Numerics

let pi = Float.pi
let pi2 = pi /. 2.0
let pi4 = pi /. 4.0

let ccx_to_cx a b c =
  Gate.
    [
      h c;
      cx b c;
      tdg c;
      cx a c;
      t c;
      cx b c;
      tdg c;
      cx a c;
      t b;
      t c;
      h c;
      cx a b;
      t a;
      tdg b;
      cx a b;
    ]

let rec mcx ~controls ~target ~avail =
  match controls with
  | [] -> [ Gate.x target ]
  | [ c ] -> [ Gate.cx c target ]
  | [ c1; c2 ] -> [ Gate.ccx c1 c2 target ]
  | _ ->
    let k = List.length controls in
    (match avail with
    | [] -> invalid_arg "Decomp.mcx: dirty ancilla required for >= 3 controls"
    | anc :: rest ->
      let m = (k + 1) / 2 in
      let first = List.filteri (fun i _ -> i < m) controls in
      let second = List.filteri (fun i _ -> i >= m) controls in
      (* C^k X = [MCX(S∪a -> t); MCX(F -> a)] twice: the second pass
         uncomputes the garbage toggled into [anc]. *)
      let part1 =
        mcx ~controls:(second @ [ anc ]) ~target ~avail:(first @ rest)
      in
      let part2 =
        mcx ~controls:first ~target:anc ~avail:(second @ (target :: rest))
      in
      part1 @ part2 @ part1 @ part2)

let cnot_count_for (c : Weyl.Coords.t) =
  let eps = 1e-9 in
  if Weyl.Coords.norm1 c < eps then 0
  else if Float.abs c.z < eps then
    if Float.abs (c.x -. pi4) < eps && Float.abs c.y < eps then 1 else 2
  else 3

(* Empirically verified parameter maps (see test_circuit):
   - two CNOTs:  cx01 . (rx t1 ⊗ rz t2) . cx01 has class (t1/2, t2/2, 0)
   - three CNOTs: cx10 . (I ⊗ ry t3) . cx01 . (rz t1 ⊗ ry t2) . cx10 has
     class (pi/4 - t3/2, pi/4 - t2/2, pi/4 - t1/2). *)
let can_circuit q0 q1 (c : Weyl.Coords.t) =
  match cnot_count_for c with
  | 0 -> []
  | 1 -> [ Gate.cx q0 q1 ]
  | 2 ->
    Gate.
      [ cx q0 q1; rx q0 (2.0 *. c.x); rz q1 (2.0 *. c.y); cx q0 q1 ]
  | _ ->
    Gate.
      [
        cx q1 q0;
        rz q0 (pi2 -. (2.0 *. c.z));
        ry q1 (pi2 -. (2.0 *. c.y));
        cx q0 q1;
        ry q1 (pi2 -. (2.0 *. c.x));
        cx q1 q0;
      ]

let one_q_if_needed q m =
  if Mat.equal ~tol:1e-11 m (Mat.identity 2) then [] else [ Gate.one_q q m ]

let su4_to_cx (g : Gate.t) =
  if Gate.arity g <> 2 then invalid_arg "Decomp.su4_to_cx: need a 2Q gate";
  let a = g.qubits.(0) and b = g.qubits.(1) in
  let d = Robust.Err.ok_exn (Gate.kak g) in
  if Weyl.Coords.norm1 d.coords < 1e-9 then
    (* the gate is local: merge the KAK factors per wire *)
    one_q_if_needed a (Mat.mul d.a1 d.b1) @ one_q_if_needed b (Mat.mul d.a2 d.b2)
  else begin
    let core = can_circuit 0 1 d.coords in
    let core_u =
      List.fold_left
        (fun acc (gg : Gate.t) ->
          Mat.mul (Quantum.Gates.embed ~n:2 ~qubits:(Array.to_list gg.qubits) gg.mat) acc)
        (Mat.identity 4) core
    in
    let k = Weyl.Kak.decompose core_u in
    (* U = (A·kA†) · core · (kB†·B) *)
    let r1 = Mat.mul (Mat.dagger k.b1) d.b1 and r2 = Mat.mul (Mat.dagger k.b2) d.b2 in
    let l1 = Mat.mul d.a1 (Mat.dagger k.a1) and l2 = Mat.mul d.a2 (Mat.dagger k.a2) in
    one_q_if_needed a r1 @ one_q_if_needed b r2
    @ List.map (Gate.remap (fun q -> if q = 0 then a else b)) core
    @ one_q_if_needed a l1 @ one_q_if_needed b l2
  end

let three_q_to_ccx (g : Gate.t) =
  let a = g.qubits.(0) and b = g.qubits.(1) and c = g.qubits.(2) in
  match g.label with
  | "ccx" -> [ g ]
  | "ccz" -> [ Gate.h c; Gate.ccx a b c; Gate.h c ]
  | "cswap" -> [ Gate.cx c b; Gate.ccx a b c; Gate.cx c b ]
  | "peres" -> [ Gate.ccx a b c; Gate.cx a b ]
  | l -> invalid_arg (Printf.sprintf "Decomp.three_q_to_ccx: unknown gate %s" l)

let lower_3q (c : Circuit.t) =
  let gates =
    List.concat_map
      (fun g -> if Gate.arity g >= 3 then three_q_to_ccx g else [ g ])
      c.gates
  in
  Circuit.create c.n gates

let lower_to_cx (c : Circuit.t) =
  let rec lower g =
    match Gate.arity g with
    | 1 -> [ g ]
    | 2 ->
      if g.Gate.label = "cx" then [ g ]
      else su4_to_cx g
    | 3 ->
      List.concat_map
        (fun (gg : Gate.t) ->
          if gg.label = "ccx" then
            ccx_to_cx gg.qubits.(0) gg.qubits.(1) gg.qubits.(2)
          else lower gg)
        (three_q_to_ccx g)
    | k -> invalid_arg (Printf.sprintf "Decomp.lower_to_cx: %d-qubit gate" k)
  in
  Circuit.create c.n (List.concat_map lower c.gates)

let u3_of q m =
  let e = Quantum.Euler.zyz m in
  Gate.u3 q e.Quantum.Euler.theta e.Quantum.Euler.phi e.Quantum.Euler.lam

let su4_to_can (g : Gate.t) =
  if Gate.arity g <> 2 then invalid_arg "Decomp.su4_to_can: need a 2Q gate";
  let a = g.qubits.(0) and b = g.qubits.(1) in
  let d = Robust.Err.ok_exn (Gate.kak g) in
  let emit q m = if Mat.equal ~tol:1e-10 (Mat.fix_det_su m) (Mat.identity 2) then [] else [ u3_of q m ] in
  emit a d.Weyl.Kak.b1 @ emit b d.Weyl.Kak.b2
  @ [
      Gate.can a b d.Weyl.Kak.coords.Weyl.Coords.x d.Weyl.Kak.coords.Weyl.Coords.y
        d.Weyl.Kak.coords.Weyl.Coords.z;
    ]
  @ emit a d.Weyl.Kak.a1 @ emit b d.Weyl.Kak.a2

let to_can_isa (c : Circuit.t) =
  Circuit.create c.n
    (List.concat_map
       (fun (g : Gate.t) ->
         match Gate.arity g with
         | 1 -> [ u3_of g.qubits.(0) g.mat ]
         | 2 ->
           if String.length g.label >= 3 && String.sub g.label 0 3 = "can" then [ g ]
           else su4_to_can g
         | _ -> invalid_arg "Decomp.to_can_isa: lower 3Q gates first")
       c.gates)
