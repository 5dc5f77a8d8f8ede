(** Iteration / wall-clock budgets for retry ladders.

    The unit of iteration is the dominant inner operation of the consumer
    (for the EA solver: one residual evaluation, i.e. one 4x4 matrix
    exponential). Budgets are cheap mutable records local to one solve;
    they are not shared across domains. *)

type t

(** [make ()] starts the clock now. Defaults: 200k iterations, 30 s. *)
val make : ?max_iterations:int -> ?max_seconds:float -> unit -> t

(** [spend b n] records [n] units of work. *)
val spend : t -> int -> unit

val iterations : t -> int
val elapsed : t -> float

(** [exceeded b] holds once more than [max_iterations] units were spent
    or at least [max_seconds] have elapsed, so a zero-second budget is
    exceeded from the start. *)
val exceeded : t -> bool

(** [check b ~stage ~residual] is [Error (Budget_exceeded ...)] once the
    budget is exhausted, carrying the best residual reached so far. *)
val check : t -> stage:string -> residual:float -> (unit, Err.t) result
