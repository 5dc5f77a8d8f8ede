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

(* Matrices as keys by the exact bits of their planes: 0.0 and -0.0 are
   different keys, as they are to the KAK (its [atan2]s tell them apart).
   Neither function allocates. *)
module Exact = Hashtbl.Make (struct
  type t = Mat.t

  let same_bits (x : float array) (y : float array) =
    let n = Array.length x in
    Array.length y = n
    &&
    let i = ref 0 in
    while !i < n && Int64.bits_of_float x.(!i) = Int64.bits_of_float y.(!i) do
      incr i
    done;
    !i = n

  let equal a b =
    same_bits (Mat.re_plane a) (Mat.re_plane b) && same_bits (Mat.im_plane a) (Mat.im_plane b)

  let mix h (p : float array) =
    let h = ref h in
    for i = 0 to Array.length p - 1 do
      let b = Int64.bits_of_float p.(i) in
      h := (!h * 31) + Int64.to_int (Int64.logxor b (Int64.shift_right_logical b 32))
    done;
    !h

  let hash m = mix (mix 0 (Mat.re_plane m)) (Mat.im_plane m)
end)

let kak_table gates =
  let table = Exact.create 64 in
  if not (Robust.Fault.enabled ()) then
    List.iter
      (fun (g : Gate.t) -> Option.iter (fun d -> Exact.replace table g.mat d) g.kak)
      gates;
  fun u ->
    (* an armed fault site may poison a decomposition, and each call must
       reach the kernels it counts: no entry is read or kept *)
    if Robust.Fault.enabled () then Weyl.Kak.decompose u
    else
      match Exact.find_opt table u with
      | Some d -> d
      | None ->
        let d = Weyl.Kak.decompose u in
        Exact.add table u d;
        d

let fuse_2q (c : Circuit.t) =
  let kak = kak_table c.gates in
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
          let d = kak u in
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
