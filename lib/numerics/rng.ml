type t = { mutable state : int64; mutable cached_gaussian : float option }

let create seed = { state = seed; cached_gaussian = None }

type position = int64 * float option

let position t = (t.state, t.cached_gaussian)

let set_position t (state, g) =
  t.state <- state;
  t.cached_gaussian <- g

let position_bits (state, g) =
  let b = Buffer.create 17 in
  Buffer.add_int64_le b state;
  (match g with
  | None -> Buffer.add_char b 'n'
  | Some x ->
    Buffer.add_char b 'g';
    Buffer.add_int64_le b (Int64.bits_of_float x));
  Buffer.contents b

let next_int64 t =
  let open Int64 in
  t.state <- add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let split t =
  let s = next_int64 t in
  create (Int64.logxor s 0xA5A5A5A5A5A5A5A5L)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: non-positive bound";
  let v = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  v mod bound

let float t bound =
  (* 53-bit mantissa from the top bits *)
  let v = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  bound *. (v /. 9007199254740992.0)

let uniform t ~lo ~hi = lo +. float t (hi -. lo)
let bool t = Int64.logand (next_int64 t) 1L = 1L

let gaussian t =
  match t.cached_gaussian with
  | Some g ->
    t.cached_gaussian <- None;
    g
  | None ->
    let rec draw () =
      let u = float t 1.0 in
      if u <= 1e-300 then draw () else u
    in
    let u1 = draw () and u2 = float t 1.0 in
    let r = sqrt (-2.0 *. log u1) in
    let theta = 2.0 *. Float.pi *. u2 in
    t.cached_gaussian <- Some (r *. sin theta);
    r *. cos theta

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
