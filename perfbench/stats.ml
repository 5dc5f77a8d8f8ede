(* The benchmark's own arithmetic, kept free of the system under test so
   its tests need nothing but this file: order statistics with the
   tail-sample rule, span self time, and the serve attribution share. *)

let sorted_array xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Linear interpolation between closest ranks; used for medians and the
   quartiles of per-pass figures. *)
let quantile xs q =
  let a = sorted_array xs in
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    a.(lo) +. ((a.(hi) -. a.(lo)) *. frac)

let median xs = quantile xs 0.5

(* Nearest-rank percentile [p] of [n] samples sits at index
   [ceil (p n) - 1]; the samples strictly beyond it are the rest. *)
let rank n p = max 0 (int_of_float (Float.ceil ((p *. float_of_int n) -. 1e-9)) - 1)

let beyond n p = n - (rank n p + 1)

(* A tail percentile is only reported when at least [min_beyond] samples
   lie beyond it; otherwise the estimate rests on fewer than ten
   observations and moves with every stray one. [tail ~cap xs] is the
   highest percentile up to [cap] that meets the rule, with its value:
   [cap] itself once there are enough samples, a lower one before. *)
let min_beyond = 10

let tail ?(cap = 0.99) xs =
  let a = sorted_array xs in
  let n = Array.length a in
  if n <= min_beyond then None
  else
    let p =
      if beyond n cap >= min_beyond then cap
      else float_of_int (n - min_beyond) /. float_of_int n
    in
    (* guard against rounding putting the rank one past the rule *)
    let p = if beyond n p >= min_beyond then p else p -. (1.0 /. float_of_int n) in
    Some (p, a.(rank n p))

(* ------------------------------------------------------------ spans *)

(* A span as recorded: start, duration, nesting depth on its domain, and
   the domain. Times are integer nanoseconds. *)
type span = { t0 : int; dur : int; depth : int; domain : int }

(* [self_times spans] is each span's duration minus the part of its
   interval covered by its direct children — spans on the same domain,
   one level deeper, starting inside it. Child intervals are clipped to
   the parent and merged, so overlapping or over-long children never
   count twice or push self time below zero. Result order follows the
   input. *)
let self_times (spans : span array) =
  let n = Array.length spans in
  let children = Array.make n [] in
  let order = Array.init n Fun.id in
  Array.sort
    (fun i j ->
      let a = spans.(i) and b = spans.(j) in
      compare (a.domain, a.t0, a.depth) (b.domain, b.t0, b.depth))
    order;
  let stack = ref [] in
  Array.iter
    (fun i ->
      let s = spans.(i) in
      let rec unwind = function
        | j :: rest ->
          let p = spans.(j) in
          if p.domain <> s.domain || p.depth >= s.depth || p.t0 + p.dur <= s.t0 then
            unwind rest
          else j :: rest
        | [] -> []
      in
      stack := unwind !stack;
      (match !stack with
      | j :: _ when spans.(j).depth = s.depth - 1 -> children.(j) <- i :: children.(j)
      | _ -> ());
      stack := i :: !stack)
    order;
  Array.mapi
    (fun i s ->
      let lo = s.t0 and hi = s.t0 + s.dur in
      let ivs =
        List.filter_map
          (fun j ->
            let c = spans.(j) in
            let a = max lo c.t0 and b = min hi (c.t0 + c.dur) in
            if b > a then Some (a, b) else None)
          children.(i)
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (a, b) ->
            let a = max a reach in
            if b > a then (acc + (b - a), b) else (acc, reach))
          (0, min_int) ivs
      in
      s.dur - covered)
    spans

(* ---------------------------------------------------- serve attribution *)

(* Share of client-observed latency the engine's own spans do not
   explain: framing, the socket hops, the event loop and response demux.
   [engine_s] sums queue wait and execution over the same requests whose
   client latencies sum to [client_s]. *)
let outside_share ~engine_s ~client_s =
  if client_s <= 0.0 then nan else 1.0 -. (engine_s /. client_s)
