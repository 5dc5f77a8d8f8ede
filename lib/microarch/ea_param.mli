(** The appendix's eigenvalue reparametrization of the equal-amplitude
    scheme (A.4): after rescaling the coupling so that [c = a - 1] and
    writing [eta = a - b], the spectrum of the driven Hamiltonian

    {v H_EA = H[a, b, c] + Ω (XI + IX) + delta (ZI + IZ) v}

    is exactly

    {v { 1 + eta - 3a  (singlet),
         a + eta - 1 - 2(alpha + beta),
         a - 1 - eta + 2 alpha,
         a + 1 - eta + 2 beta } v}

    with [(alpha, beta)] ranging over
    [Q_eta = { alpha in [0,1], beta >= 0, alpha + beta >= eta }], and the
    map to drives is the closed form

    {v Ω = sqrt((1 - alpha) beta (1 - eta + alpha + beta))
       delta = sqrt(alpha (1 + beta) (alpha + beta - eta)) v}

    This module exposes that bijection (both directions) as an independent
    cross-check of the numerical EA solver, and to report Fig-4 style
    solution profiles in the paper's [(alpha, beta)] coordinates. *)

(** [rescale h] returns [(k, a', eta)] with [k = 1/(a - c)] so that the
    rescaled coupling [k·h] has [c' = a' - 1] and [eta = a' - b'].
    @raise Invalid_argument for isotropic couplings (a = c) or
    non-finite entries. *)
val rescale : Coupling.t -> float * float * float

(** [drives_of ~eta (alpha, beta)] is the closed-form [(Ω, delta)] in
    rescaled units.
    @raise Invalid_argument outside [Q_eta] or on non-finite input. *)
val drives_of : eta:float -> float * float -> float * float

(** [in_domain ~eta (alpha, beta)] tests membership of [Q_eta]. *)
val in_domain : eta:float -> float * float -> bool

(** [params_of h ~omega ~delta] inverts the map for a physical (unscaled)
    drive pair under coupling [h]: computes the spectrum of the driven
    Hamiltonian and reads off [(alpha, beta)] in rescaled units. *)
val params_of : Coupling.t -> omega:float -> delta:float -> float * float

(** [spectrum ~a ~eta (alpha, beta)] is the predicted 4-point spectrum
    (rescaled units, sorted ascending) — what the eigensolver must
    reproduce. *)
val spectrum : a:float -> eta:float -> float * float -> float array
