(** Matrix-carrying gates on named wires.

    A gate holds its exact unitary (2^k x 2^k for k wires, k <= 3 after
    lowering) plus a label used by structural passes (template matching,
    printing). Wire order in [qubits] matches the tensor order of [mat]
    (first listed qubit = most significant). *)

open Numerics

type t = { label : string; qubits : int array; mat : Mat.t }

(** [make label qubits mat] checks that the matrix size matches the wire
    count and that wires are distinct. *)
val make : string -> int array -> Mat.t -> t

val arity : t -> int

(** [is_2q g] — true when the gate touches exactly two wires. *)
val is_2q : t -> bool

(** {1 Common constructors} *)

val x : int -> t
val y : int -> t
val z : int -> t
val h : int -> t
val s : int -> t
val sdg : int -> t
val t : int -> t
val tdg : int -> t
val rx : int -> float -> t
val ry : int -> float -> t
val rz : int -> float -> t
val u3 : int -> float -> float -> float -> t

(** [one_q q m] is an arbitrary single-qubit gate with label "u". *)
val one_q : int -> Mat.t -> t

val cx : int -> int -> t
val cz : int -> int -> t
val swap : int -> int -> t
val iswap : int -> int -> t
val cphase : int -> int -> float -> t
val rzz : int -> int -> float -> t

(** [can q1 q2 x y z] is the canonical gate [Can(x,y,z)]; the label encodes
    the coordinates. *)
val can : int -> int -> float -> float -> float -> t

(** [su4 q1 q2 m] is an arbitrary two-qubit gate with label "su4". *)
val su4 : int -> int -> Mat.t -> t

val ccx : int -> int -> int -> t
val cswap : int -> int -> int -> t

(** [ccz a b c] is doubly-controlled Z. *)
val ccz : int -> int -> int -> t

(** [peres a b c] is the Peres gate: CCX(a,b,c) followed by CX(a,b). *)
val peres : int -> int -> int -> t

(** [remap f g] renames wires through [f] (used by routing and templates). *)
val remap : (int -> int) -> t -> t

(** [dagger g] inverts the gate. *)
val dagger : t -> t

val pp : Format.formatter -> t -> unit
val to_string : t -> string
