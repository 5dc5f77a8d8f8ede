(** Dense complex matrices (row-major, structure-of-arrays storage).

    Sized for the small operators this project manipulates (2x2 .. 256x256):
    the matrix is two unboxed [float array] planes (real and imaginary), so
    kernels run on flat float arithmetic with no per-element [Complex.t]
    boxing. Two API layers coexist:

    - the historical boxed-[Cx] API ([get]/[set]/[mul]/[add]/...), pure
      unless documented otherwise — thin shims over the planes;
    - allocation-free [_into] kernels plus raw accessors
      ([get_re]/[get_im]/[set_parts]/[re_plane]/[im_plane]) for the hot
      paths (eigensolver sweeps, matrix exponentials, statevector updates).

    Unless stated otherwise, [_into] kernels require [dst] to be a distinct
    matrix from their inputs (checked, [Invalid_argument] on aliasing). *)

type t

(** [create rows cols] is the zero matrix. *)
val create : int -> int -> t

(** [init rows cols f] fills entry [(i, j)] with [f i j]. *)
val init : int -> int -> (int -> int -> Cx.t) -> t

(** [of_arrays rows] builds a matrix from a non-ragged array of rows. *)
val of_arrays : Cx.t array array -> t

(** [of_real_arrays rows] builds a matrix from real entries. *)
val of_real_arrays : float array array -> t

(** [identity n] is the n x n identity. *)
val identity : int -> t

val rows : t -> int
val cols : t -> int
val get : t -> int -> int -> Cx.t
val set : t -> int -> int -> Cx.t -> unit
val copy : t -> t

(** {1 Unboxed element access} *)

val get_re : t -> int -> int -> float
val get_im : t -> int -> int -> float

(** [set_parts m i j re im] writes entry [(i, j)] without boxing. *)
val set_parts : t -> int -> int -> float -> float -> unit

(** [re_plane m] / [im_plane m] expose the backing row-major planes
    (length [rows * cols]); mutating them mutates the matrix. Intended for
    kernel modules only. *)
val re_plane : t -> float array

val im_plane : t -> float array

(** {1 In-place kernels}

    All dimension-checked; [dst] must not alias an input except where
    noted. None of these allocate per element. *)

(** [zero_fill m] sets every entry to 0. *)
val zero_fill : t -> unit

(** [copy_into ~dst m] copies [m] into [dst] (same shape). *)
val copy_into : dst:t -> t -> unit

(** [mul_into ~dst a b] computes [dst <- a * b]. *)
val mul_into : dst:t -> t -> t -> unit

(** [gemm ~alpha ~beta ~dst a b] computes
    [dst <- alpha * a * b + beta * dst]. *)
val gemm : alpha:Cx.t -> beta:Cx.t -> dst:t -> t -> t -> unit

(** [add_into ~dst a b] computes [dst <- a + b]; [dst] may alias [a] or
    [b] (pure elementwise). *)
val add_into : dst:t -> t -> t -> unit

(** [sub_into ~dst a b] computes [dst <- a - b]; aliasing allowed. *)
val sub_into : dst:t -> t -> t -> unit

(** [dagger_into ~dst m] computes [dst <- m†]. *)
val dagger_into : dst:t -> t -> unit

(** [scale_into ~dst s m] computes [dst <- s * m] for real [s]; [dst] may
    alias [m]. *)
val scale_into : dst:t -> float -> t -> unit

(** [smul_into ~dst z m] computes [dst <- z * m] for complex [z]; [dst]
    may alias [m]. *)
val smul_into : dst:t -> Cx.t -> t -> unit

(** [axpy ~alpha x y] computes [y <- y + alpha * x] for real [alpha]. *)
val axpy : alpha:float -> t -> t -> unit

(** [trace_mul a b] is [trace (mul a b)] without forming the product. *)
val trace_mul : t -> t -> Cx.t

(** {1 Pure operations} *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

(** [mul3 a b c] is [a * b * c]. *)
val mul3 : t -> t -> t -> t

(** [mul_list ms] is the product of [ms] left to right; [ms] non-empty. *)
val mul_list : t list -> t

val smul : Cx.t -> t -> t
val rsmul : float -> t -> t
val neg : t -> t

(** [transpose m] is the plain (unconjugated) transpose. *)
val transpose : t -> t

(** [transpose_into ~dst m] computes [dst <- transpose m]. *)
val transpose_into : dst:t -> t -> unit

(** [dagger m] is the conjugate transpose. *)
val dagger : t -> t

val conj : t -> t
val trace : t -> Cx.t

(** [kron a b] is the Kronecker product [a ⊗ b]. *)
val kron : t -> t -> t

(** [apply m v] is the matrix-vector product. *)
val apply : t -> Cx.t array -> Cx.t array

(** [det m] via LU with partial pivoting. *)
val det : t -> Cx.t

(** [det_into ~lu m] is [det m], eliminating in [lu] (same shape as [m],
    overwritten) instead of a fresh copy. *)
val det_into : lu:t -> t -> Cx.t

(** [inv m] via Gauss-Jordan with partial pivoting.
    @raise Failure if singular. *)
val inv : t -> t

(** [frobenius_dist a b] is the Frobenius norm of [a - b]. *)
val frobenius_dist : t -> t -> float

val frobenius_norm : t -> float

(** [max_abs m] is the entrywise max modulus. *)
val max_abs : t -> float

(** [has_nan m] is true when any entry has a NaN real or imaginary part. *)
val has_nan : t -> bool

(** [equal ?tol a b] holds when every entry differs by at most [tol]
    (default [1e-9]). *)
val equal : ?tol:float -> t -> t -> bool

(** [is_unitary ?tol m] tests [m† m = I]. *)
val is_unitary : ?tol:float -> t -> bool

(** [is_hermitian ?tol m] tests [m† = m]. *)
val is_hermitian : ?tol:float -> t -> bool

(** [allclose_up_to_phase ?tol a b] holds when [a = e^{iφ} b] for some global
    phase φ. *)
val allclose_up_to_phase : ?tol:float -> t -> t -> bool

(** [phase_dist a b] is [min_φ ‖a - e^{iφ}b‖_F], the Frobenius distance
    minimized over a global phase. *)
val phase_dist : t -> t -> float

(** [fix_det_su m] rescales a unitary by a global phase so its determinant
    becomes 1 (projects U(n) onto SU(n)). *)
val fix_det_su : t -> t

(** [fix_det_su_into ~lu ~dst m] computes [dst <- fix_det_su m], with
    {!det_into} on [lu]. *)
val fix_det_su_into : lu:t -> dst:t -> t -> unit

val pp : Format.formatter -> t -> unit
val to_string : t -> string
