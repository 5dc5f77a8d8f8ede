(** Kronecker factorization of local two-qubit unitaries.

    A 4x4 unitary of the form [a ⊗ b] (up to a global phase) is split back
    into its 2x2 factors; the phase is folded into the first factor so
    [a ⊗ b] reproduces the input exactly. *)

open Numerics

(** [factor m] returns [Some (a, b)] with [Mat.kron a b = m] (within [tol],
    default 1e-8) when [m] is an exact tensor product, [None] otherwise.
    [b] is unitary; any global phase of the input ends up in [a]. *)
val factor : ?tol:float -> Mat.t -> (Mat.t * Mat.t) option

(** [is_local m] tests whether the 4x4 unitary [m] is a tensor product of
    1-qubit gates (up to global phase). *)
val is_local : ?tol:float -> Mat.t -> bool
