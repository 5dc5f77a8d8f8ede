open Numerics

type t = { n : int; gates : Gate.t list }

let validate n (g : Gate.t) =
  Array.iter
    (fun q ->
      if q < 0 || q >= n then
        invalid_arg (Printf.sprintf "Circuit: wire %d out of range (n=%d)" q n))
    g.qubits

let create n gates =
  if n <= 0 then invalid_arg "Circuit.create: n <= 0";
  List.iter (validate n) gates;
  { n; gates }

let empty n = create n []

let append c g =
  validate c.n g;
  { c with gates = c.gates @ [ g ] }

let concat a b =
  if a.n <> b.n then invalid_arg "Circuit.concat: width mismatch";
  { a with gates = a.gates @ b.gates }

let gate_count c = List.length c.gates

let count_2q c =
  List.fold_left
    (fun acc g ->
      match Gate.arity g with
      | 1 -> acc
      | 2 -> acc + 1
      | k ->
        invalid_arg
          (Printf.sprintf "Circuit.count_2q: %d-qubit gate %s not lowered" k
             (Gate.to_string g)))
    0 c.gates

let count_2q_loose c =
  List.fold_left (fun acc g -> if Gate.is_2q g then acc + 1 else acc) 0 c.gates

type slot = { start : float; dur : float; gate : Gate.t }

(* ASAP list scheduling, the one walk behind every reported depth and
   duration: a gate starts when the last of its wires is ready and holds
   each of them for [tau g]. Slots are built only when [keep] is set, so
   the depth/duration path allocates nothing per gate beyond what [tau]
   does. *)
let asap ~tau ~keep c =
  let ready = Array.make c.n 0.0 in
  let slots = ref [] in
  List.iter
    (fun (g : Gate.t) ->
      let qs = g.Gate.qubits in
      let start = ref 0.0 in
      for i = 0 to Array.length qs - 1 do
        start := Float.max !start ready.(qs.(i))
      done;
      let dur = tau g in
      let finish = !start +. dur in
      for i = 0 to Array.length qs - 1 do
        ready.(qs.(i)) <- finish
      done;
      if keep then slots := { start = !start; dur; gate = g } :: !slots)
    c.gates;
  let makespan = ref 0.0 in
  for q = 0 to c.n - 1 do
    makespan := Float.max !makespan ready.(q)
  done;
  (!makespan, !slots)

let duration ~tau c = fst (asap ~tau ~keep:false c)

let schedule ~tau c =
  let makespan, slots = asap ~tau ~keep:true c in
  (List.rev slots, makespan)

let depth_2q c =
  int_of_float (duration ~tau:(fun g -> if Gate.is_2q g then 1.0 else 0.0) c)

let max_arity c = List.fold_left (fun acc g -> max acc (Gate.arity g)) 0 c.gates

let unitary c =
  let dim = 1 lsl c.n in
  if c.n > 12 then invalid_arg "Circuit.unitary: too many qubits";
  (* apply the circuit to each basis column via the statevector kernel *)
  let out = Mat.create dim dim in
  for col = 0 to dim - 1 do
    let v = Array.make dim Cx.zero in
    v.(col) <- Cx.one;
    List.iter (fun g -> State.apply_gate_arr ~n:c.n v g) c.gates;
    for row = 0 to dim - 1 do
      Mat.set out row col v.(row)
    done
  done;
  out

let dagger c = { c with gates = List.rev_map Gate.dagger c.gates }
let remap f c = { c with gates = List.map (Gate.remap f) c.gates }

let distinct_2q c =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun g ->
      if Gate.is_2q g then begin
        let co = (Robust.Err.ok_exn (Gate.kak g)).Weyl.Kak.coords in
        let r v = Float.round (v *. 1e6) in
        Hashtbl.replace tbl (r co.x, r co.y, r co.z) ()
      end)
    c.gates;
  Hashtbl.length tbl

let pp ppf c =
  Format.fprintf ppf "@[<v>circuit %d qubits, %d gates:@," c.n (gate_count c);
  List.iter (fun g -> Format.fprintf ppf "  %a@," Gate.pp g) c.gates;
  Format.fprintf ppf "@]"

let to_string c = Format.asprintf "%a" pp c
