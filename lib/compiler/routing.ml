open Numerics

type topology = {
  n : int;
  edges : (int * int) list;
  neighbors : int list array;
  dist : int array array;
}

let build n edges =
  let neighbors = Array.make n [] in
  List.iter
    (fun (a, b) ->
      neighbors.(a) <- b :: neighbors.(a);
      neighbors.(b) <- a :: neighbors.(b))
    edges;
  let dist = Array.make_matrix n n max_int in
  for s = 0 to n - 1 do
    dist.(s).(s) <- 0;
    let q = Queue.create () in
    Queue.add s q;
    while not (Queue.is_empty q) do
      let u = Queue.pop q in
      List.iter
        (fun v ->
          if dist.(s).(v) = max_int then begin
            dist.(s).(v) <- dist.(s).(u) + 1;
            Queue.add v q
          end)
        neighbors.(u)
    done
  done;
  { n; edges; neighbors; dist }

let chain n = build n (List.init (n - 1) (fun i -> (i, i + 1)))

let grid ~rows ~cols =
  let n = rows * cols in
  let idx r c = (r * cols) + c in
  let edges = ref [] in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      if c + 1 < cols then edges := (idx r c, idx r (c + 1)) :: !edges;
      if r + 1 < rows then edges := (idx r c, idx (r + 1) c) :: !edges
    done
  done;
  build n !edges

type routed = {
  circuit : Circuit.t;
  initial_mapping : int array;
  final_mapping : int array;
  swaps_inserted : int;
  swaps_absorbed : int;
}

(* extended-set size, and bidirectional mapping-refinement passes *)
let lookahead = 20
let passes = 3

(* One forward routing pass from a given initial mapping. When [emit] is
   false we only compute the final mapping (used by the bidirectional
   refinement passes). *)
let forward_pass ?(mirror = false) topo (c : Circuit.t) init_mapping =
  let dag = Dag.of_circuit c in
  let m = Array.length dag.Dag.gates in
  let pi = Array.copy init_mapping in
  (* physical -> logical *)
  let pi_inv = Array.make topo.n (-1) in
  Array.iteri (fun l p -> pi_inv.(p) <- l) pi;
  let remaining_preds = Array.map List.length dag.Dag.preds in
  let front = Queue.create () in
  let in_front = Array.make m false in
  Array.iteri
    (fun i k ->
      if k = 0 then begin
        Queue.add i front;
        in_front.(i) <- true
      end)
    remaining_preds;
  let front_list () =
    Queue.fold (fun acc i -> i :: acc) [] front
  in
  let out = ref [] in
  let out_len = ref 0 in
  (* last emitted output index per physical wire, and the gate there *)
  let last_on_wire = Array.make topo.n (-1) in
  let out_arr : Gate.t option array ref = ref (Array.make 64 None) in
  let push_gate (g : Gate.t) =
    if !out_len >= Array.length !out_arr then begin
      let bigger = Array.make (2 * Array.length !out_arr) None in
      Array.blit !out_arr 0 bigger 0 !out_len;
      out_arr := bigger
    end;
    !out_arr.(!out_len) <- Some g;
    Array.iter (fun q -> last_on_wire.(q) <- !out_len) g.Gate.qubits;
    incr out_len;
    out := () :: !out
  in
  let swaps_inserted = ref 0 and swaps_absorbed = ref 0 in
  let complete = ref 0 in
  let executable i =
    let g = dag.Dag.gates.(i) in
    Gate.arity g < 2
    || topo.dist.(pi.(g.qubits.(0))).(pi.(g.qubits.(1))) = 1
  in
  let execute i =
    let g = dag.Dag.gates.(i) in
    push_gate (Gate.remap (fun q -> pi.(q)) g);
    incr complete;
    List.iter
      (fun s ->
        remaining_preds.(s) <- remaining_preds.(s) - 1;
        if remaining_preds.(s) = 0 then begin
          Queue.add s front;
          in_front.(s) <- true
        end)
      dag.Dag.succs.(i)
  in
  (* extended set: BFS successors of the front, 2q gates only *)
  let extended fl =
    let seen = Hashtbl.create 32 in
    let acc = ref [] and count = ref 0 in
    let q = Queue.create () in
    List.iter (fun i -> Queue.add i q) fl;
    while (not (Queue.is_empty q)) && !count < lookahead do
      let i = Queue.pop q in
      List.iter
        (fun s ->
          if not (Hashtbl.mem seen s) then begin
            Hashtbl.add seen s ();
            if Gate.is_2q dag.Dag.gates.(s) && !count < lookahead then begin
              acc := s :: !acc;
              incr count
            end;
            Queue.add s q
          end)
        dag.Dag.succs.(i)
    done;
    !acc
  in
  let cost_with map fl ext =
    let d g =
      let gg = dag.Dag.gates.(g) in
      float_of_int topo.dist.(map gg.Gate.qubits.(0)).(map gg.Gate.qubits.(1))
    in
    let fl2 = List.filter (fun i -> Gate.is_2q dag.Dag.gates.(i)) fl in
    let f_term =
      if fl2 = [] then 0.0
      else List.fold_left (fun acc g -> acc +. d g) 0.0 fl2 /. float_of_int (List.length fl2)
    in
    let e_term =
      if ext = [] then 0.0
      else
        0.5
        *. (List.fold_left (fun acc g -> acc +. d g) 0.0 ext /. float_of_int (List.length ext))
    in
    f_term +. e_term
  in
  let decay = Array.make topo.n 1.0 in
  let decay_round = ref 0 in
  let stuck = ref 0 in
  while !complete < m do
    (* drain executable front gates *)
    let progressed = ref true in
    while !progressed do
      progressed := false;
      let fl = front_list () in
      Queue.clear front;
      List.iter
        (fun i ->
          if executable i then begin
            in_front.(i) <- false;
            execute i;
            progressed := true
          end
          else Queue.add i front)
        (List.rev fl)
    done;
    if !complete < m then begin
      let fl = front_list () in
      let ext = extended fl in
      let map_of q = pi.(q) in
      let h0 = cost_with map_of fl ext in
      (* swap candidates: edges touching a front-gate physical qubit *)
      let active =
        List.concat_map
          (fun i ->
            let g = dag.Dag.gates.(i) in
            List.map (fun q -> pi.(q)) (Array.to_list g.Gate.qubits))
          (List.filter (fun i -> Gate.is_2q dag.Dag.gates.(i)) fl)
      in
      let candidates =
        List.filter (fun (a, b) -> List.mem a active || List.mem b active) topo.edges
      in
      let candidates = if candidates = [] then topo.edges else candidates in
      let swapped_map (p1, p2) q =
        let p = pi.(q) in
        if p = p1 then p2 else if p = p2 then p1 else p
      in
      let score (p1, p2) =
        Float.max decay.(p1) decay.(p2) *. cost_with (swapped_map (p1, p2)) fl ext
      in
      (* mirroring-SABRE: prefer absorbable swaps that strictly improve *)
      let absorbable (p1, p2) =
        let j = last_on_wire.(p1) in
        j >= 0 && j = last_on_wire.(p2)
        &&
        match !out_arr.(j) with
        | Some g -> Gate.is_2q g
        | None -> false
      in
      let pick_from lst =
        List.fold_left
          (fun acc cand ->
            match acc with
            | Some (best, bs) ->
              let s = score cand in
              if s < bs -. 1e-12 then Some (cand, s) else Some (best, bs)
            | None -> Some (cand, score cand))
          None lst
      in
      let mirror_choice =
        if not mirror then None
        else begin
          let abs = List.filter absorbable candidates in
          match pick_from abs with
          | Some (cand, s) when cost_with (swapped_map cand) fl ext < h0 -. 1e-12 ->
            Some (cand, s)
          | _ -> None
        end
      in
      let (p1, p2), _ =
        match mirror_choice with
        | Some c -> c
        | None -> (
          match pick_from candidates with
          | Some c -> c
          | None -> assert false)
      in
      (match mirror_choice with
      | Some _ ->
        (* fuse SWAP into the last gate on (p1, p2) *)
        incr swaps_absorbed;
        let j = last_on_wire.(p1) in
        (match !out_arr.(j) with
        | Some g ->
          !out_arr.(j) <-
            Some (Gate.make "su4*" g.Gate.qubits (Mat.mul Quantum.Gates.swap g.Gate.mat))
        | None -> assert false)
      | None ->
        incr swaps_inserted;
        push_gate (Gate.swap p1 p2));
      (* update mapping *)
      let l1 = pi_inv.(p1) and l2 = pi_inv.(p2) in
      if l1 >= 0 then pi.(l1) <- p2;
      if l2 >= 0 then pi.(l2) <- p1;
      pi_inv.(p1) <- l2;
      pi_inv.(p2) <- l1;
      decay.(p1) <- decay.(p1) +. 0.001;
      decay.(p2) <- decay.(p2) +. 0.001;
      incr decay_round;
      if !decay_round mod 5 = 0 then Array.fill decay 0 topo.n 1.0;
      incr stuck;
      if !stuck > 4 * topo.n * topo.n then begin
        (* safety valve against heuristic oscillation *)
        Array.fill decay 0 topo.n 1.0;
        stuck := 0
      end
    end
    else ()
  done;
  let gates = List.init !out_len (fun i -> Option.get !out_arr.(i)) in
  ( Circuit.create topo.n gates,
    pi,
    !swaps_inserted,
    !swaps_absorbed )

let route ?(mirror = false) topo (c : Circuit.t) =
  Obs.Span.with_ ~stage:"compiler" ~name:"routing" @@ fun () ->
  if c.Circuit.n > topo.n then invalid_arg "Routing.route: circuit wider than device";
  (* pad the logical circuit to the device size *)
  let c = Circuit.create topo.n c.Circuit.gates in
  let init = ref (Array.init topo.n (fun i -> i)) in
  (* bidirectional refinement: forward and backward dry runs improve the
     initial mapping *)
  let reversed = Circuit.create topo.n (List.rev c.Circuit.gates) in
  for p = 1 to passes - 1 do
    let which = if p mod 2 = 1 then c else reversed in
    let _, final, _, _ = forward_pass ~mirror topo which !init in
    init := final
  done;
  let initial_mapping = Array.copy !init in
  let circuit, final_mapping, swaps_inserted, swaps_absorbed =
    forward_pass ~mirror topo c !init
  in
  { circuit; initial_mapping; final_mapping; swaps_inserted; swaps_absorbed }
