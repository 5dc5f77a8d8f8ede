(** Matrix exponentials of Hermitian generators.

    Quantum evolutions in this project always exponentiate a Hermitian
    Hamiltonian, so the exponential is computed exactly through the
    eigendecomposition — no Padé scaling-and-squaring needed. The [_into]
    variants reuse a caller-owned workspace so tight solver loops (the
    genAshN EA residual evaluations) run with zero allocation per call. *)

(** [herm_expi h ~t] is [exp(-i * t * h)] for Hermitian [h]; the result is
    unitary to working precision. *)
val herm_expi : Mat.t -> t:float -> Mat.t

(** {1 Workspace API} *)

(** Scratch buffers for n x n spectral computations; create once with
    {!make_ws} and reuse across calls. Not domain-safe: use one workspace
    per domain. *)
type ws

(** [make_ws n] allocates a workspace for n x n Hermitian inputs. *)
val make_ws : int -> ws

(** [herm_expi_into ws ~dst h ~t] computes [exp(-i t h)] into [dst] using
    only [ws] for scratch; [dst] may alias [h]. *)
val herm_expi_into : ws -> dst:Mat.t -> Mat.t -> t:float -> unit
