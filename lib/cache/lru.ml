type ('k, 'v) node = {
  key : 'k;
  mutable value : 'v;
  mutable prev : ('k, 'v) node option;  (* towards most-recent *)
  mutable next : ('k, 'v) node option;  (* towards least-recent *)
}

type ('k, 'v) t = {
  capacity : int;
  table : ('k, ('k, 'v) node) Hashtbl.t;
  mutable head : ('k, 'v) node option;  (* most-recently used *)
  mutable tail : ('k, 'v) node option;  (* least-recently used *)
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Lru.create: capacity must be >= 1";
  { capacity; table = Hashtbl.create (min capacity 1024); head = None; tail = None }

let length t = Hashtbl.length t.table

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  n.prev <- None;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let promote t n =
  match t.head with
  | Some h when h == n -> ()
  | _ ->
    unlink t n;
    push_front t n

let find t k =
  match Hashtbl.find_opt t.table k with
  | None -> None
  | Some n ->
    promote t n;
    Some n.value

let add t k v =
  match Hashtbl.find_opt t.table k with
  | Some n ->
    n.value <- v;
    promote t n;
    None
  | None ->
    let n = { key = k; value = v; prev = None; next = None } in
    Hashtbl.replace t.table k n;
    push_front t n;
    if Hashtbl.length t.table <= t.capacity then None
    else begin
      match t.tail with
      | None -> None
      | Some lru ->
        unlink t lru;
        Hashtbl.remove t.table lru.key;
        Some (lru.key, lru.value)
    end

let clear t =
  Hashtbl.reset t.table;
  t.head <- None;
  t.tail <- None

let keys t =
  let rec go acc = function
    | None -> List.rev acc
    | Some n -> go (n.key :: acc) n.next
  in
  go [] t.head
