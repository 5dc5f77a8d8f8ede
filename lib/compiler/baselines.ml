
let resynth_blocks_to_cx (c : Circuit.t) =
  let fused = Blocks.fuse_2q c in
  let gates =
    List.concat_map
      (fun (g : Gate.t) ->
        if Gate.is_2q g then Decomp.su4_to_cx g else [ g ])
      fused.Circuit.gates
  in
  Circuit.create c.n gates

let qiskit_like (c : Circuit.t) =
  (* lower everything to cx + 1q first (mimics unrolling), then consolidate
     and resynthesize blocks optimally *)
  let lowered = Decomp.lower_to_cx c in
  resynth_blocks_to_cx lowered

let tket_like (c : Circuit.t) =
  (* one extra consolidation round catches patterns the first pass opened *)
  let once = qiskit_like c in
  resynth_blocks_to_cx once

let tket_like_pauli (p : Phoenix.program) =
  let p = Phoenix.reorder (Phoenix.simplify p) in
  qiskit_like (Phoenix.to_cx_circuit p)

type bqskit_target = To_cnot | To_su4

let bqskit_like rng ~target (c : Circuit.t) =
  let lowered = Decomp.lower_to_cx c in
  let fused = Blocks.fuse_2q lowered in
  let blocks = Blocks.collect ~w:3 fused in
  let synth_block (b : Blocks.block) =
    let k = Blocks.count_2q b in
    let qarr = Array.of_list b.qubits in
    let n_loc = List.length b.qubits in
    if n_loc < 2 || k = 0 then b.gates
    else begin
      let u = Blocks.block_unitary b in
      let cx_equiv =
        (* CNOT cost of the block as-is *)
        match target with
        | To_cnot ->
          List.fold_left
            (fun acc (g : Gate.t) ->
              if Gate.is_2q g then
                acc + Decomp.cnot_count_for (Robust.Err.ok_exn (Gate.kak g)).Weyl.Kak.coords
              else acc)
            0 b.gates
        | To_su4 -> k
      in
      let found =
        match target with
        | To_su4 when n_loc >= 2 ->
          Synth.min_su4 ~tol:1e-8 rng ~n:n_loc ~target:u ~max_gates:(min (cx_equiv - 1) 7)
        | To_cnot ->
          Synth.min_cx_desc ~tol:1e-8 rng ~n:n_loc ~target:u
            ~max_gates:(min (cx_equiv - 1) (if n_loc = 2 then 3 else 9))
            ~min_gates:(if n_loc = 2 then 0 else 2)
        | To_su4 -> None
      in
      match found with
      | Some (gates, _) -> List.map (Gate.remap (fun q -> qarr.(q))) gates
      | None -> (
        match target with
        | To_cnot ->
          List.concat_map
            (fun (g : Gate.t) -> if Gate.is_2q g then Decomp.su4_to_cx g else [ g ])
            b.gates
        | To_su4 -> b.gates)
    end
  in
  let gates = List.concat_map synth_block blocks in
  let out = Circuit.create c.n gates in
  match target with To_su4 -> Blocks.fuse_2q out | To_cnot -> out

let qiskit_su4 c = Blocks.fuse_2q (qiskit_like c)
let tket_su4 c = Blocks.fuse_2q (tket_like c)
