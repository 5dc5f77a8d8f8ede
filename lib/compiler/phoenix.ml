open Numerics
open Quantum

type term = { pauli : Pauli.t; angle : float }
type program = { n : int; terms : term list }

let simplify (p : program) =
  (* single pass: merge equal adjacent strings, drop trivial terms *)
  let rec merge = function
    | [] -> []
    | [ t ] -> [ t ]
    | t1 :: t2 :: rest ->
      if t1.pauli = t2.pauli then merge ({ t1 with angle = t1.angle +. t2.angle } :: rest)
      else t1 :: merge (t2 :: rest)
  in
  let nontrivial t =
    Pauli.weight t.pauli > 0 && Float.abs (sin (t.angle /. 2.0)) > 1e-12
  in
  { p with terms = List.filter nontrivial (merge p.terms) }

let reorder (p : program) =
  (* bubble passes: swap adjacent commuting terms when it brings equal
     supports together *)
  let arr = Array.of_list p.terms in
  let support t = Pauli.support t.pauli in
  let changed = ref true in
  let guard = ref 0 in
  while !changed && !guard < 20 do
    changed := false;
    incr guard;
    for i = 0 to Array.length arr - 3 do
      let a = arr.(i) and b = arr.(i + 1) and c = arr.(i + 2) in
      (* pull c next to a when they share support and b does not *)
      if
        support a = support c
        && support a <> support b
        && Pauli.commutes b.pauli c.pauli
      then begin
        arr.(i + 1) <- c;
        arr.(i + 2) <- b;
        changed := true
      end
    done
  done;
  { p with terms = Array.to_list arr }

let basis_change q (op : Pauli.op) =
  match op with
  | Pauli.Z -> ([], [])
  | Pauli.X -> ([ Gate.h q ], [ Gate.h q ])
  | Pauli.Y ->
    (* V = H S†: V Y V† = Z; circuit order pre = [sdg; h], post = [h; s] *)
    ([ Gate.sdg q; Gate.h q ], [ Gate.h q; Gate.s q ])
  | Pauli.I -> invalid_arg "Phoenix.basis_change: identity op"

let term_circuit (t : term) =
  let qs = Pauli.support t.pauli in
  match qs with
  | [] -> []
  | [ q ] ->
    let pre, post = basis_change q t.pauli.(q) in
    pre @ [ Gate.rz q t.angle ] @ post
  | _ ->
    let pre = List.concat_map (fun q -> fst (basis_change q t.pauli.(q))) qs in
    let post = List.concat_map (fun q -> snd (basis_change q t.pauli.(q))) (List.rev qs) in
    let rec ladder = function
      | a :: (b :: _ as rest) -> Gate.cx a b :: ladder rest
      | _ -> []
    in
    let down = ladder qs in
    let last = List.nth qs (List.length qs - 1) in
    pre @ down @ [ Gate.rz last t.angle ] @ List.rev down @ post

let to_cx_circuit (p : program) =
  Circuit.create p.n (List.concat_map term_circuit p.terms)

let rotation_matrix (t : term) qs =
  (* exp(-i angle/2 * P) restricted to the support wires *)
  let sub = Array.of_list (List.map (fun q -> t.pauli.(q)) qs) in
  Expm.herm_expi (Pauli.to_matrix sub) ~t:(t.angle /. 2.0)

let to_su4_circuit (p : program) =
  let p = reorder (simplify p) in
  let gates =
    List.concat_map
      (fun t ->
        let qs = Pauli.support t.pauli in
        match qs with
        | [] -> []
        | [ q ] -> [ Gate.one_q q (rotation_matrix t [ q ]) ]
        | [ a; b ] -> [ Gate.su4 a b (rotation_matrix t [ a; b ]) ]
        | _ ->
          (* ladder with the core (cx . rz . cx) pre-fused on the last pair *)
          let pre = List.concat_map (fun q -> fst (basis_change q t.pauli.(q))) qs in
          let post =
            List.concat_map (fun q -> snd (basis_change q t.pauli.(q))) (List.rev qs)
          in
          let rec ladder = function
            | a :: (b :: _ as rest) -> Gate.cx a b :: ladder rest
            | _ -> []
          in
          let down = ladder qs in
          let rec split_last = function
            | [ x ] -> ([], x)
            | x :: rest ->
              let init, last = split_last rest in
              (x :: init, last)
            | [] -> assert false
          in
          let down_init, (last_cx : Gate.t) = split_last down in
          let a = last_cx.qubits.(0) and b = last_cx.qubits.(1) in
          let core =
            Mat.mul_list
              [
                Gates.cnot;
                Gates.embed ~n:2 ~qubits:[ 1 ] (Gates.rz t.angle);
                Gates.cnot;
              ]
          in
          pre @ down_init @ [ Gate.su4 a b core ] @ List.rev down_init @ post)
      p.terms
  in
  Blocks.fuse_2q (Circuit.create p.n gates)
