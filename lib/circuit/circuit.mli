(** Circuits: ordered gate lists on [n] wires, plus the metrics the
    evaluation reports (#2Q, Depth2Q, duration). *)

open Numerics

type t = { n : int; gates : Gate.t list }

(** [create n gates] validates wire indices. *)
val create : int -> Gate.t list -> t

val empty : int -> t

(** [append c g] adds a gate at the end. *)
val append : t -> Gate.t -> t

(** [concat a b] runs [a] then [b] (same width). *)
val concat : t -> t -> t

val gate_count : t -> int

(** [count_2q c] counts gates acting on exactly two wires (gates on three or
    more wires must be lowered first; they are rejected). *)
val count_2q : t -> int

(** [count_2q_loose c] counts 2Q gates, counting a k>=3-wire gate as if each
    counted 0 — used on not-yet-lowered circuits for diagnostics. *)
val count_2q_loose : t -> int

(** {1 ASAP schedule}

    Every depth and duration the repo reports comes from one ASAP list
    schedule: a gate starts at the latest ready time of its wires, and
    those wires become ready at [start + tau g]. [tau] is applied once to
    each gate, in circuit order. *)

(** One gate's place in the schedule. *)
type slot = { start : float; dur : float; gate : Gate.t }

(** [duration ~tau c] is the makespan (critical-path time) of the
    schedule where each gate [g] costs [tau g]; 1Q gates cost whatever
    [tau] charges them (0 under the analog cost models). Builds no slots. *)
val duration : tau:(Gate.t -> float) -> t -> float

(** [schedule ~tau c] is the same schedule with one slot per gate, in
    circuit order (zero-duration gates included), and its makespan. *)
val schedule : tau:(Gate.t -> float) -> t -> slot list * float

(** [depth_2q c] is [duration] with every 2Q gate costing 1 and every
    other gate 0: the depth of the circuit restricted to its 2Q gates. *)
val depth_2q : t -> int

(** [max_arity c] is the widest gate. *)
val max_arity : t -> int

(** [unitary c] is the full 2^n x 2^n matrix; intended for n <= 11. *)
val unitary : t -> Mat.t

(** [dagger c] reverses and inverts. *)
val dagger : t -> t

(** [remap f c] renames every wire through [f] (must stay within [n]). *)
val remap : (int -> int) -> t -> t

(** [distinct_2q c] counts distinct two-qubit gate classes by Weyl
    coordinates rounded to 6 digits — the calibration-overhead metric of
    Fig. 13. The coordinates come from {!Gate.kak}: a gate that carries
    its KAK costs no decomposition.
    @raise Failure when a 2Q gate's matrix cannot be decomposed. *)
val distinct_2q : t -> int

val pp : Format.formatter -> t -> unit
val to_string : t -> string
