open Numerics

let stage = "compiler.hier"

(* the paper's block width, resynthesis threshold (#SU(4) per block) and
   round count *)
let w = 3
let m_th = 4
let rounds = 2

(* [`Smaller gates] when the template search found fewer SU(4)s,
   [`No_gain] when it found none, [`Failed] when it could not run *)
let resynthesize lib block =
  let k = Blocks.count_2q block in
  let u = Blocks.block_unitary block in
  let qarr = Array.of_list block.Blocks.qubits in
  if List.length block.Blocks.qubits > w then `No_gain
  else if Robust.Fault.enabled () && Robust.Fault.fire "hier_fail" then
    (* fault site "hier_fail": approximate resynthesis unavailable — the
       caller must fall back to the block's exact gates *)
    `Failed
  else if Mat.has_nan u then `Failed
  else begin
    let e = Template.template_entry lib ~max_gates:(min (k - 1) 7) u in
    match e.Template.best with
    | Some gates when List.length (List.filter Gate.is_2q gates) < k ->
      `Smaller (List.map (Gate.remap (fun q -> qarr.(q))) gates)
    | _ -> `No_gain
  end

(* Resynthesis must never abort a compile: any numerical breakdown inside
   the template search degrades to keeping the block's original gates. *)
let resynthesize_safe lib block =
  match resynthesize lib block with
  | `Smaller gates ->
    Robust.Counters.incr ~stage "resynth_ok";
    Some gates
  | `No_gain ->
    Robust.Counters.incr ~stage "no_gain";
    None
  | `Failed ->
    Robust.Counters.incr ~stage "fallback";
    None
  | exception _ ->
    Robust.Counters.incr ~stage "fallback";
    Robust.Counters.incr ~stage "resynth_error";
    None

let one_round lib rng ~compacting (c : Circuit.t) =
  let fused = Blocks.fuse_2q c in
  (* the compacting pass is quadratic-ish in circuit size; past a few
     hundred SU(4)s its expected win no longer pays for the synthesis
     probes, so it is gated (the paper caps its Fig. 13/14 studies at
     comparable sizes) *)
  let fused =
    if compacting && Circuit.count_2q fused <= 300 then
      Obs.Span.with_ ~stage:"compiler" ~name:"compact" (fun () -> Compact.run rng fused)
    else fused
  in
  let blocks = Blocks.collect ~w fused in
  let gates =
    List.concat_map
      (fun (b : Blocks.block) ->
        if Blocks.count_2q b > m_th then
          match resynthesize_safe lib b with
          | Some gates -> gates
          | None -> b.gates
        else b.gates)
      blocks
  in
  Blocks.fuse_2q (Circuit.create c.n gates)

let run ?(compacting = true) rng (c : Circuit.t) =
  let lib = Template.create_library (Rng.split rng) in
  let rec go k current best_count =
    if k = 0 then current
    else begin
      let next = one_round lib rng ~compacting current in
      let count = Circuit.count_2q next in
      if count >= best_count then current else go (k - 1) next count
    end
  in
  let fused = Blocks.fuse_2q c in
  go rounds fused (Circuit.count_2q fused)
