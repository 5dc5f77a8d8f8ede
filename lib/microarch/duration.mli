(** Pulse-duration model: native SU(4) durations (Theorem 1) versus
    fixed-basis synthesis costs — the data behind Table 3 and all
    duration/fidelity benchmarks. *)

(** Fixed 2Q basis-gate choices compared against the native SU(4) ISA. *)
type basis = Cnot | Iswap | Sqisw | B

val basis_to_string : basis -> string

(** [basis_coords b] is the Weyl chamber point of the basis gate. *)
val basis_coords : basis -> Weyl.Coords.t

(** [tau_su4 coupling c] is the time-optimal duration of one native SU(4)
    realization of class [c] (units of inverse energy; divide by
    [Coupling.strength] to express in g^-1). *)
val tau_su4 : Coupling.t -> Weyl.Coords.t -> float

(** [basis_gate_tau coupling b] is the duration of the basis gate itself
    when realized natively by genAshN under [coupling]. *)
val basis_gate_tau : Coupling.t -> basis -> float

(** [gates_needed b c] is the number of applications of basis [b] (with free
    1Q gates) required to synthesize class [c]: 3 for CNOT/iSWAP generically,
    2.21 on average for SQiSW (2 inside the [x >= y + |z|] polytope), 2 for
    B. *)
val gates_needed : basis -> Weyl.Coords.t -> int

(** [synthesis_tau coupling b c] is [gates_needed] x [basis_gate_tau]. *)
val synthesis_tau : Coupling.t -> basis -> Weyl.Coords.t -> float

(** [conventional_cnot_tau ~g] is the traditional flux-tunable-transmon CNOT
    duration pi / (sqrt 2 g) — the baseline normalization used throughout
    the evaluation (Krantz et al.). *)
val conventional_cnot_tau : g:float -> float

(** [haar_average_par ?domains ~n ~seed f] averages [f] over [n]
    Haar-random SU(4) classes, in parallel: sample [i] uses its own rng
    derived from [seed + i], so the result is bit-identical for every
    domain count. [?domains] defaults to {!Numerics.Par.default_domains}. *)
val haar_average_par :
  ?domains:int -> n:int -> seed:int64 -> (Weyl.Coords.t -> float) -> float
