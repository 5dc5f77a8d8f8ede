open Numerics

type entry = { mutable best : Gate.t list option; mutable tried_up_to : int }

type library = {
  rng : Rng.t;
  buckets : (string, (Mat.t * entry) list ref) Hashtbl.t;
  mutable distinct : int;
}

let create_library rng = { rng; buckets = Hashtbl.create 64; distinct = 0 }
let library_size lib = lib.distinct

(* Phase-invariant fingerprint via the shared quantized-key helper: coarse
   1e-3 rounding (collisions are resolved by exact comparison inside the
   bucket; coarse rounding only trades extra comparisons for fewer
   misses). *)
let fingerprint u =
  Cache.Fingerprint.(key (unitary ~quantum:1e-3 (create "template.unitary.v1") u))

let lookup lib u =
  let key = fingerprint u in
  let bucket =
    match Hashtbl.find_opt lib.buckets key with
    | Some b -> b
    | None ->
      let b = ref [] in
      Hashtbl.add lib.buckets key b;
      b
  in
  match List.find_opt (fun (v, _) -> Mat.allclose_up_to_phase ~tol:1e-7 u v) !bucket with
  | Some (_, e) -> e
  | None ->
    let e = { best = None; tried_up_to = -1 } in
    bucket := (u, e) :: !bucket;
    lib.distinct <- lib.distinct + 1;
    e

let synth_min lib ~n ~target ~max_gates =
  Synth.min_su4 ~tol:1e-9 lib.rng ~n ~target ~max_gates

let template_entry lib ?(max_gates = 7) u =
  let n = if Mat.rows u = 4 then 2 else 3 in
  let e = lookup lib u in
  (match e.best with
  | Some _ -> ()
  | None ->
    if e.tried_up_to < max_gates then begin
      (match synth_min lib ~n ~target:u ~max_gates with
      | Some (gates, _) -> e.best <- Some gates
      | None -> ());
      e.tried_up_to <- max_gates
    end);
  e

let template_for lib u =
  match (template_entry lib ~max_gates:8 u).best with
  | Some g -> g
  | None -> failwith "Template.template_for: synthesis failed"

(* ----------------------------------------------------------- assembly *)

(* wire-permutation symmetries of a block unitary: permutations p (of local
   wires) with P† u P = u up to phase — e.g. control permutability of CCX *)
let permutation_symmetries u =
  let k = if Mat.rows u = 4 then 2 else 3 in
  let perms =
    if k = 2 then [ [| 0; 1 |]; [| 1; 0 |] ]
    else
      [
        [| 0; 1; 2 |]; [| 1; 0; 2 |]; [| 0; 2; 1 |]; [| 2; 1; 0 |];
        [| 1; 2; 0 |]; [| 2; 0; 1 |];
      ]
  in
  List.filter
    (fun p ->
      if p = Array.init k (fun i -> i) then true
      else begin
        let dim = 1 lsl k in
        let pm =
          Mat.init dim dim (fun i j ->
              (* i = sigma(j): permute wire bits *)
              let target = ref 0 in
              for pos = 0 to k - 1 do
                let bit = (j lsr (k - 1 - pos)) land 1 in
                target := !target lor (bit lsl (k - 1 - p.(pos)))
              done;
              if i = !target then Cx.one else Cx.zero)
        in
        Mat.allclose_up_to_phase ~tol:1e-8 (Mat.mul3 (Mat.dagger pm) u pm) u
      end)
    perms

(* a block is self-inverse when u^2 is a global phase (CCX, CSWAP, CCZ...) *)
let self_inverse u =
  Mat.allclose_up_to_phase ~tol:1e-8 (Mat.mul u u) (Mat.identity (Mat.rows u))

let variants lib u =
  let base = template_for lib u in
  let perms = permutation_symmetries u in
  let permuted = List.map (fun p -> List.map (Gate.remap (fun q -> p.(q))) base) perms in
  (* ECC: a self-inverse IR is also synthesized by its reversed-dagger
     template, which exposes the opposite boundary pair for fusion *)
  if self_inverse u then
    permuted @ List.map (fun v -> List.rev_map Gate.dagger v) permuted
  else permuted

let run lib (c : Circuit.t) =
  let blocks = Blocks.collect ~w:3 c in
  let kak = Blocks.kak_table c.gates in
  let out = ref [] in
  (* global pair of the last emitted su4, used to steer variant choice *)
  let last_pair = ref None in
  let emit (g : Gate.t) =
    if Gate.is_2q g then
      last_pair := Some (min g.qubits.(0) g.qubits.(1), max g.qubits.(0) g.qubits.(1));
    out := g :: !out
  in
  List.iter
    (fun (b : Blocks.block) ->
      match b.qubits with
      | [ _ ] -> List.iter emit b.gates
      | _ when List.for_all (fun (g : Gate.t) -> Gate.arity g = 1) b.gates ->
        List.iter emit b.gates
      | [ a; bq ] ->
        let u = Blocks.block_unitary b in
        let d = kak u in
        if Weyl.Coords.norm1 d.coords < 1e-9 then begin
          emit (Gate.one_q a (Mat.mul d.a1 d.b1));
          emit (Gate.one_q bq (Mat.mul d.a2 d.b2))
        end
        else emit (Gate.make_kak "su4" [| a; bq |] u d)
      | qs ->
        let u = Blocks.block_unitary b in
        let qarr = Array.of_list qs in
        match variants lib u with
        | exception Failure _ ->
          (* synthesis failed (very rare): lower the block literally *)
          List.iter
            (fun (g : Gate.t) ->
              if Gate.arity g >= 3 then
                List.iter emit
                  (List.concat_map
                     (fun (gg : Gate.t) ->
                       if gg.label = "ccx" then
                         Decomp.ccx_to_cx gg.qubits.(0) gg.qubits.(1) gg.qubits.(2)
                       else [ gg ])
                     (Decomp.three_q_to_ccx g))
              else emit g)
            b.gates
        | vs ->
          let vs = (vs : Gate.t list list) in
        (* prefer the variant whose first su4 fuses with the last one *)
        let score v =
          match
            ( !last_pair,
              List.find_opt Gate.is_2q v )
          with
          | Some (x, y), Some g ->
            let a = qarr.(g.Gate.qubits.(0)) and b' = qarr.(g.Gate.qubits.(1)) in
            if (min a b', max a b') = (x, y) then 1 else 0
          | _ -> 0
        in
          let best =
            List.fold_left (fun acc v -> if score v > score acc then v else acc)
              (List.hd vs) (List.tl vs)
          in
          List.iter (fun g -> emit (Gate.remap (fun q -> qarr.(q)) g)) best)
    blocks;
  Blocks.fuse_2q (Circuit.create c.n (List.rev !out))
