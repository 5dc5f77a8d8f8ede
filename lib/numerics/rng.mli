(** Deterministic pseudo-random source (splitmix64).

    Every stochastic component in the repository draws from an explicit
    [Rng.t] so that tests and benchmark regeneration are reproducible
    run-to-run and machine-to-machine. *)

type t

(** [create seed] builds an independent stream from a 64-bit seed. *)
val create : int64 -> t

(** A stream's position: the splitmix state plus Box–Muller's cached
    deviate. Two streams at one position draw the same values from then on. *)
type position

(** [position t] is where [t] stands now. *)
val position : t -> position

(** [set_position t p] moves [t] to [p], so that it draws what a stream
    at [p] draws next. *)
val set_position : t -> position -> unit

(** [position_bits p] renders [p] exactly: two positions give the same
    string exactly when they are equal. *)
val position_bits : position -> string

(** [split t] derives a new independent stream (useful to decorrelate
    subsystems that consume randomness in interleaved order). *)
val split : t -> t

(** [int t bound] is uniform in [[0, bound)]. *)
val int : t -> int -> int

(** [float t bound] is uniform in [[0, bound)]. *)
val float : t -> float -> float

(** [uniform t ~lo ~hi] is uniform in [[lo, hi)]. *)
val uniform : t -> lo:float -> hi:float -> float

(** [bool t] is a fair coin. *)
val bool : t -> bool

(** [gaussian t] is a standard normal deviate (Box–Muller). *)
val gaussian : t -> float

(** [shuffle t arr] permutes [arr] in place (Fisher–Yates). *)
val shuffle : t -> 'a array -> unit
