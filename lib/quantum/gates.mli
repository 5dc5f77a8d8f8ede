(** The standard gate zoo as explicit matrices, plus tensor embedding.

    Conventions:
    - qubit 0 is the leftmost (most significant) tensor factor;
    - for two-qubit controlled gates the first qubit is the control;
    - [can x y z = exp(-i (x XX + y YY + z ZZ))] — the paper's main-text
      canonical-gate convention, used everywhere in this repository. *)

open Numerics

(** {1 Single-qubit gates} *)

val x : Mat.t
val y : Mat.t
val z : Mat.t
val h : Mat.t
val s : Mat.t
val sdg : Mat.t
val t : Mat.t
val tdg : Mat.t

(** [rx theta = exp(-i theta X / 2)], similarly [ry], [rz]. *)
val rx : float -> Mat.t

val ry : float -> Mat.t
val rz : float -> Mat.t

(** [phase theta] is diag(1, e^{i theta}). *)
val phase : float -> Mat.t

(** [u3 theta phi lam] is the standard Euler-angle gate
    [rz phi * ry theta * rz lam] up to the usual OpenQASM phase. *)
val u3 : float -> float -> float -> Mat.t

(** {1 Two-qubit gates} *)

val cnot : Mat.t
val cz : Mat.t
val swap : Mat.t
val iswap : Mat.t

(** [sqisw] is the square root of iSWAP (SQiSW). *)
val sqisw : Mat.t

(** [b_gate] is the Berkeley B gate, locally equivalent to
    [can (pi/4) (pi/8) 0]. *)
val b_gate : Mat.t

(** The 2Q gates callers name on a command line or in a request, in
    order: ["cnot"; "cz"; "iswap"; "sqisw"; "b"; "swap"]. *)
val named_2q : string list

(** [of_name name] is the gate {!named_2q} lists under [name]. *)
val of_name : string -> Mat.t option

(** [can x y z = exp(-i (x XX + y YY + z ZZ))]. *)
val can : float -> float -> float -> Mat.t

(** [cphase theta] is the controlled-phase gate diag(1,1,1,e^{i theta}). *)
val cphase : float -> Mat.t

(** [rzz theta = exp(-i theta ZZ / 2)]. *)
val rzz : float -> Mat.t

(** {1 Three-qubit gates} *)

val ccx : Mat.t
val cswap : Mat.t

(** {1 Embedding} *)

(** [embed ~n ~qubits g] lifts gate [g] (on [List.length qubits] qubits, in
    the order given) to an [n]-qubit unitary acting on those wires. *)
val embed : n:int -> qubits:int list -> Mat.t -> Mat.t

(** {2 Acting with an embedded gate in place}

    A [plan] is the sparse structure of [embed ~n ~qubits g] for every
    [g] of the right size: the [2^k] nonzero positions of each row (k the
    gate arity), row-major, and the index table of the partial trace over
    the other wires. The kernels below apply [embed g] without building
    it. Each adds the terms {!Numerics.Mat.mul_into} adds for the dense
    product, in the same order and by the same expression, minus products
    with a structural zero; for finite operands their results are
    bit-identical to [Mat.mul_into] on the embedded matrix. They allocate
    nothing, and [dst] must not alias an input. *)

type plan

(** [plan ~n ~qubits] is the plan of [embed ~n ~qubits]; it raises
    [Invalid_argument] on a qubit out of range or repeated. For [n <= 3]
    it returns one of the 20 plans built at module initialisation (one
    per ordered list of distinct wires), which are never written again,
    so a lookup allocates nothing and is safe from any domain; any other
    [n] builds a fresh plan. *)
val plan : n:int -> qubits:int list -> plan

(** [apply_left_into pl ~dst g p] computes [dst <- embed g · p] for
    [2^n x 2^n] matrices [p] and [dst]. *)
val apply_left_into : plan -> dst:Mat.t -> Mat.t -> Mat.t -> unit

(** [apply_right_into pl ~dst a g] computes [dst <- a · embed g] for
    [2^n x 2^n] matrices [a] and [dst]. *)
val apply_right_into : plan -> dst:Mat.t -> Mat.t -> Mat.t -> unit

(** [partial_trace_mul_into pl ~dst a b] computes the [2^k x 2^k] partial
    trace of [a · b] over the wires off the gate: [dst[x][y] = sum_s
    (a·b)[(x,s), (y,s)]], spectators [s] in ascending order, the local
    index [x] ordered as [qubits]. It forms only the [2^n · 2^k] entries
    of [a · b] the trace reads. Then [Tr (a · b · embed g) = Tr (dst · g)]. *)
val partial_trace_mul_into : plan -> dst:Mat.t -> Mat.t -> Mat.t -> unit
