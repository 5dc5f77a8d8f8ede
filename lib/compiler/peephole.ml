open Numerics

let stage = "compiler.peephole"
let commute_tol = 1e-9

let pair (g : Gate.t) =
  (min g.qubits.(0) g.qubits.(1), max g.qubits.(0) g.qubits.(1))

let wires (g : Gate.t) = Array.to_list g.qubits

let disjoint g h =
  not (List.exists (fun q -> List.mem q (wires h)) (wires g))

(* exact commutation, checked on the wire union's embedded unitaries;
   unions wider than 3 wires only arise between disjoint gates, which
   short-circuit above *)
let commutes g h =
  if disjoint g h then true
  else begin
    let union = List.sort_uniq compare (wires g @ wires h) in
    List.length union <= 3
    && begin
         let embed gate =
           Blocks.block_unitary { Blocks.qubits = union; gates = [ gate ] }
         in
         let a = embed g and b = embed h in
         Mat.frobenius_dist (Mat.mul a b) (Mat.mul b a) <= commute_tol
       end
  end

let max_rounds = 4

let run (c : Circuit.t) =
  let gs = Array.of_list c.Circuit.gates in
  let len = Array.length gs in
  let moved = ref 0 in
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds < max_rounds do
    changed := false;
    incr rounds;
    for k = 1 to len - 1 do
      let g = gs.(k) in
      if Gate.is_2q g then begin
        let p = pair g in
        (* walk left while everything commutes with [g]; stop at the
           first earlier gate on the same pair (the fusion anchor) or at
           the first non-commuting gate *)
        let anchor = ref (-1) in
        let j = ref (k - 1) in
        let blocked = ref false in
        while (not !blocked) && !anchor < 0 && !j >= 0 do
          let h = gs.(!j) in
          if Gate.is_2q h && pair h = p then anchor := !j
          else if commutes g h then decr j
          else blocked := true
        done;
        if !anchor >= 0 && !anchor + 1 < k then begin
          (* slide [g] to sit right after its anchor *)
          for i = k downto !anchor + 2 do
            gs.(i) <- gs.(i - 1)
          done;
          gs.(!anchor + 1) <- g;
          incr moved;
          changed := true;
          Robust.Counters.incr ~stage "moved"
        end
      end
    done
  done;
  if !moved = 0 then c
  else Blocks.fuse_2q (Circuit.create c.Circuit.n (Array.to_list gs))
