(* Explicit iteration / wall-clock budgets for the retry ladders.

   A budget is spent by the solver's residual evaluations (the unit of work
   that dominates every ladder rung); [check] converts exhaustion into a
   typed [Err.Budget_exceeded] carrying how much was spent and the best
   residual at that point, so a caller can still decide to keep a degraded
   answer. *)

type t = {
  max_iterations : int;
  max_seconds : float;
  started : float;
  mutable iterations : int;
}

let default_iterations = 200_000
let default_seconds = 30.0

let make ?(max_iterations = default_iterations) ?(max_seconds = default_seconds) () =
  { max_iterations; max_seconds; started = Unix.gettimeofday (); iterations = 0 }

let spend b n = b.iterations <- b.iterations + n
let iterations b = b.iterations
let elapsed b = Unix.gettimeofday () -. b.started

let exceeded b = b.iterations > b.max_iterations || elapsed b >= b.max_seconds

let check b ~stage ~residual =
  if exceeded b then
    Error
      (Err.Budget_exceeded
         { stage; iterations = b.iterations; elapsed = elapsed b; residual })
  else Ok ()
