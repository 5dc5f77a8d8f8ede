(** Eigendecompositions by cyclic Jacobi iteration.

    Sized for the small Hermitian / real-symmetric operators used in KAK
    decomposition and pulse synthesis (n <= 16 in practice, works for any n). *)

(** [hermitian m] diagonalizes a complex Hermitian matrix:
    [m = v * diag(w) * v†] with [v] unitary and [w] real, sorted ascending.
    @raise Invalid_argument if [m] is not square. *)
val hermitian : Mat.t -> float array * Mat.t

(** [simultaneous_real a b] finds a single real orthogonal [v] diagonalizing
    the pair of commuting real symmetric matrices [a] and [b] (given as
    complex matrices with zero imaginary parts): [vᵀ a v] and [vᵀ b v]
    both diagonal. Retries over deterministic mixing angles to break
    degeneracies: for each angle [t] it diagonalizes
    [cos t * a + sin t * b], sorts the eigenvectors by eigenvalue and
    keeps them once they diagonalize both.
    @raise Failure if no mixing angle separates the joint spectrum. *)
val simultaneous_real : Mat.t -> Mat.t -> Mat.t

(** Buffers for {!simultaneous_real_into} on [n x n] pairs. *)
type joint

(** [joint_ws n] allocates the buffers for [n x n] pairs. *)
val joint_ws : int -> joint

(** [simultaneous_real_into ws a b] is {!simultaneous_real} on [ws]'s
    buffers, with the same bits and the same kernel calls in the same
    order; it allocates no matrix. The result is a buffer of [ws], valid
    until its next use. *)
val simultaneous_real_into : joint -> Mat.t -> Mat.t -> Mat.t

(** [offdiag_norm m] is the Frobenius norm of the strictly off-diagonal part;
    useful for asserting diagonalization quality in tests. *)
val offdiag_norm : Mat.t -> float

(** [jacobi_into ~a ~v ~w] runs the cyclic Jacobi iteration in place on
    the caller's buffers: [a] holds the Hermitian input on entry and is
    destroyed, [v] receives the eigenvectors (as columns), [w] the
    {e unsorted} eigenvalues. Nothing is allocated — this is the
    zero-allocation core behind {!hermitian} and the [Expm] workspace API.
    Sweeps are capped at 100 (1 under the [jacobi_stall] fault); the returned value is
    the final off-diagonal Frobenius norm, so a caller can detect
    non-convergence (residual still above [~1e-14 * max_abs]) without the
    iteration ever looping forever or raising — including on NaN-poisoned
    input, which exits on the first sweep check.
    @raise Invalid_argument on non-square input or mis-sized buffers. *)
val jacobi_into : a:Mat.t -> v:Mat.t -> w:float array -> float
