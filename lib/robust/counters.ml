(* Per-stage counters (retries, fallbacks, degradations, serve events,
   ...) and gauges (queue depth, in-flight keys, open connections).

   One global table keyed by (stage, counter); increments are mutex
   protected so solver calls inside domain-parallel sweeps (Numerics.Par)
   aggregate correctly. The bench harness snapshots this into its JSON
   report; [reset] scopes measurements per run. *)

let lock = Mutex.create ()
let table : (string * string, int ref) Hashtbl.t = Hashtbl.create 64
let gauge_table : (string * string, float ref) Hashtbl.t = Hashtbl.create 16

let add ~stage counter n =
  Mutex.lock lock;
  (match Hashtbl.find_opt table (stage, counter) with
  | Some r -> r := !r + n
  | None -> Hashtbl.add table (stage, counter) (ref n));
  Mutex.unlock lock

let incr ~stage counter = add ~stage counter 1

let get ~stage counter =
  Mutex.lock lock;
  let v = match Hashtbl.find_opt table (stage, counter) with Some r -> !r | None -> 0 in
  Mutex.unlock lock;
  v

let set_gauge ~stage name v =
  Mutex.lock lock;
  (match Hashtbl.find_opt gauge_table (stage, name) with
  | Some r -> r := v
  | None -> Hashtbl.add gauge_table (stage, name) (ref v));
  Mutex.unlock lock

let get_gauge ~stage name =
  Mutex.lock lock;
  let v = Option.map ( ! ) (Hashtbl.find_opt gauge_table (stage, name)) in
  Mutex.unlock lock;
  v

let reset () =
  Mutex.lock lock;
  Hashtbl.reset table;
  Hashtbl.reset gauge_table;
  Mutex.unlock lock

let snapshot () =
  Mutex.lock lock;
  let flat = Hashtbl.fold (fun (st, c) r acc -> (st, c, !r) :: acc) table [] in
  Mutex.unlock lock;
  let stages = List.sort_uniq compare (List.map (fun (st, _, _) -> st) flat) in
  List.map
    (fun st ->
      let cs =
        List.filter_map (fun (s, c, v) -> if s = st then Some (c, v) else None) flat
      in
      (st, List.sort compare cs))
    stages

let gauges () =
  Mutex.lock lock;
  let flat = Hashtbl.fold (fun (st, n) r acc -> (st, n, !r) :: acc) gauge_table [] in
  Mutex.unlock lock;
  List.sort compare flat

let to_json () =
  let buf = Buffer.create 256 in
  Buffer.add_char buf '{';
  List.iteri
    (fun i (st, cs) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Printf.sprintf "%S:{" st);
      List.iteri
        (fun j (c, v) ->
          if j > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf (Printf.sprintf "%S:%d" c v))
        cs;
      Buffer.add_char buf '}')
    (snapshot ());
  Buffer.add_char buf '}';
  Buffer.contents buf
