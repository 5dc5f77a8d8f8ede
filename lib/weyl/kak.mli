(** KAK (canonical) decomposition of two-qubit unitaries.

    Any [u] in U(4) factors as

    {v u = (a1 ⊗ a2) · Can(x, y, z) · (b1 ⊗ b2) v}

    with [(x, y, z)] in the canonical Weyl chamber ({!Coords.in_chamber}) and
    [a2, b1, b2] unitary; the global phase of [u] is folded into [a1] so the
    factorization reproduces [u] exactly.

    Every intermediate of a decomposition (the SU(4) rescale, the magic
    basis products, the joint eigensolve, the canonicalizing corrections)
    lives in a preallocated workspace, one per domain ([Domain.DLS]), so a
    call allocates no matrix but the four 2x2 locals it returns (plus a
    few boxed scalars). It is safe across domains, each with its own
    workspace, and across systhreads: a thread that enters while another
    thread of its domain is inside a decomposition takes a fresh
    workspace. The arithmetic is that of the boxed matrix operations it
    replaced, in the same order, so the output bits are theirs. *)

open Numerics

type t = {
  a1 : Mat.t;  (** left local on qubit 0 (carries the global phase) *)
  a2 : Mat.t;  (** left local on qubit 1 *)
  coords : Coords.t;  (** canonical Weyl coordinates *)
  b1 : Mat.t;  (** right local on qubit 0 *)
  b2 : Mat.t;  (** right local on qubit 1 *)
}

(** [decompose u] computes the full decomposition of a 4x4 unitary. Each
    call that passes the input checks (here or in {!decompose_r}) counts
    one [("weyl", "decompose")] in {!Robust.Counters}.
    @raise Failure on non-unitary input or numerical breakdown. *)
val decompose : Mat.t -> t

(** [reconstruct d] rebuilds the 4x4 unitary; equals the input of
    {!decompose} to ~1e-9 or better. *)
val reconstruct : t -> Mat.t

(** [coords_of u] is [(decompose u).coords]. *)
val coords_of : Mat.t -> Coords.t

(** [decompose_r u] is {!decompose} with typed errors instead of raising:
    [Ill_conditioned] for shape/unitarity/factorization breakdown,
    [Nan_detected] for poisoned input. *)
val decompose_r : Mat.t -> (t, Robust.Err.t) result

(** [coords_of_r u] is the typed-error variant of {!coords_of}. *)
val coords_of_r : Mat.t -> (Coords.t, Robust.Err.t) result

(** [canonical c] is the matrix [Can c]. *)
val canonical : Coords.t -> Mat.t

(** [locally_equivalent ?tol u v] tests whether two gates share a Weyl
    chamber point (differ only by single-qubit gates). *)
val locally_equivalent : ?tol:float -> Mat.t -> Mat.t -> bool
