open Numerics

type block = { qubits : int list; gates : Gate.t list }

(* Linear-scan collector. Invariant: replacing blocks by their fused
   unitaries in emission order reproduces the circuit, because a gate only
   joins an open block when every one of its wires is either free or
   currently attached to that same block (so no other block interleaves on
   those wires). *)
let collect ~w (c : Circuit.t) =
  let open_block_of_wire = Array.make c.n None in
  let finished = ref [] in
  (* open blocks are mutable accumulators *)
  let close b =
    finished := { qubits = List.sort compare (fst !b); gates = List.rev (snd !b) } :: !finished;
    Array.iteri
      (fun q ob -> match ob with Some b' when b' == b -> open_block_of_wire.(q) <- None | _ -> ())
      open_block_of_wire
  in
  let union a b = List.sort_uniq compare (a @ b) in
  List.iter
    (fun (g : Gate.t) ->
      let wires = Array.to_list g.qubits in
      if Gate.arity g > w then begin
        (* oversized gate: flush everything it touches, emit alone *)
        List.iter
          (fun q ->
            match open_block_of_wire.(q) with Some b -> close b | None -> ())
          wires;
        finished := { qubits = List.sort compare wires; gates = [ g ] } :: !finished
      end
      else begin
        (* distinct open blocks touching the gate's wires *)
        let blocks_touched =
          List.fold_left
            (fun acc q ->
              match open_block_of_wire.(q) with
              | Some b when not (List.memq b acc) -> b :: acc
              | _ -> acc)
            [] wires
        in
        match blocks_touched with
        | [ b ] when List.length (union (fst !b) wires) <= w ->
          b := (union (fst !b) wires, g :: snd !b);
          List.iter (fun q -> open_block_of_wire.(q) <- Some b) wires
        | [] ->
          let b = ref (List.sort compare wires, [ g ]) in
          List.iter (fun q -> open_block_of_wire.(q) <- Some b) wires
        | bs ->
          (* conflict: close everything touched, then start fresh *)
          List.iter close bs;
          let b = ref (List.sort compare wires, [ g ]) in
          List.iter (fun q -> open_block_of_wire.(q) <- Some b) wires
      end)
    c.gates;
  (* close the remaining open blocks in wire order of first appearance *)
  let seen = ref [] in
  Array.iter
    (fun ob ->
      match ob with
      | Some b when not (List.memq b !seen) ->
        seen := b :: !seen;
        close b
      | _ -> ())
    open_block_of_wire;
  List.rev !finished

let block_unitary b =
  let qubits = b.qubits in
  let k = List.length qubits in
  let pos q =
    let rec find i = function
      | [] -> invalid_arg "Blocks.block_unitary: wire not in block"
      | q' :: rest -> if q' = q then i else find (i + 1) rest
    in
    find 0 qubits
  in
  let dim = 1 lsl k in
  let acc = ref (Mat.identity dim) and spare = ref (Mat.create dim dim) in
  List.iter
    (fun (g : Gate.t) ->
      let wires = List.map pos (Array.to_list g.qubits) in
      Quantum.Gates.apply_left_into (Quantum.Gates.plan ~n:k ~qubits:wires) ~dst:!spare
        g.mat !acc;
      let prev = !acc in
      acc := !spare;
      spare := prev)
    b.gates;
  !acc

let count_2q b = List.fold_left (fun acc g -> if Gate.is_2q g then acc + 1 else acc) 0 b.gates
let to_circuit n blocks = Circuit.create n (List.concat_map (fun b -> b.gates) blocks)

let fuse_2q (c : Circuit.t) =
  let blocks = collect ~w:2 c in
  let gates =
    List.concat_map
      (fun b ->
        match b.qubits with
        | [ q ] ->
          (* merge the 1q run into a single gate *)
          let u = block_unitary b in
          if Mat.equal ~tol:1e-11 u (Mat.identity 2) then [] else [ Gate.one_q q u ]
        | [ a; bq ] ->
          let u = block_unitary b in
          let d = Weyl.Kak.decompose u in
          if Weyl.Coords.norm1 d.coords < 1e-9 then begin
            (* the block is local after fusion: emit two 1Q gates *)
            let g1 = Mat.mul d.a1 d.b1 and g2 = Mat.mul d.a2 d.b2 in
            let emit q m =
              if Mat.equal ~tol:1e-11 m (Mat.identity 2) then [] else [ Gate.one_q q m ]
            in
            emit a g1 @ emit bq g2
          end
          else [ Gate.make_kak "su4" [| a; bq |] u d ]
        | _ -> b.gates)
      blocks
  in
  Circuit.create c.n gates
