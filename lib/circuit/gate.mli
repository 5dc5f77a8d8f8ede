(** Matrix-carrying gates on named wires.

    A gate holds its exact unitary (2^k x 2^k for k wires, k <= 3 after
    lowering) plus a label used by structural passes (template matching,
    printing). Wire order in [qubits] matches the tensor order of [mat]
    (first listed qubit = most significant).

    A 2Q gate may also carry [kak], the exact {!Weyl.Kak.decompose} of
    its own [mat], so that the passes and the pulse solver after the one
    that decomposed it read that KAK instead of decomposing again. Only
    the constructors below set it: {!make_kak} (whose caller has just
    decomposed [mat]), the named entanglers {!cx}, {!cz}, {!swap} and
    {!iswap} (one KAK each, computed at initialisation from the matrix
    they hold) and {!remap}, which keeps it. Every other constructor
    leaves it [None]. The carried matrices are shared between gates and
    are read-only: a reader that hands them out copies them. *)

open Numerics

type t = private {
  label : string;
  qubits : int array;
  mat : Mat.t;
  kak : Weyl.Kak.t option;  (** [Some (Weyl.Kak.decompose mat)] or [None] *)
}

(** [make label qubits mat] checks that the matrix size matches the wire
    count and that wires are distinct. The gate carries no KAK. *)
val make : string -> int array -> Mat.t -> t

(** [make_kak label qubits mat d] is {!make} for a 2Q gate that carries
    [d], which must be [Weyl.Kak.decompose mat] (bit for bit: every
    reader takes it in place of a fresh decomposition).
    @raise Invalid_argument unless [qubits] names two distinct wires. *)
val make_kak : string -> int array -> Mat.t -> Weyl.Kak.t -> t

(** [kak g] is the KAK [g] carries, or else a fresh
    [Weyl.Kak.decompose_r g.mat]: either way the same bits. *)
val kak : t -> (Weyl.Kak.t, Robust.Err.t) result

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

(** [remap f g] renames wires through [f] (used by routing and templates).
    The matrix is unchanged, so a carried KAK is kept. *)
val remap : (int -> int) -> t -> t

(** [dagger g] inverts the gate. The result carries no KAK. *)
val dagger : t -> t

val pp : Format.formatter -> t -> unit
val to_string : t -> string
