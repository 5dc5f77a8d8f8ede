(** Compile-time resolution of the near-identity control singularity
    (Section 4.3): gates whose Weyl class has L1 norm at most [r] are
    replaced by their SWAP-mirror (far from the origin, hence realizable
    with bounded drive amplitudes) and the induced rewiring is tracked in
    the qubit mapping instead of extra gates. *)

type result = {
  circuit : Circuit.t;  (** gates rewritten and rewired *)
  final_mapping : int array;
      (** [final_mapping.(logical)] = wire holding that logical qubit at the
          end *)
  mirrored : int;  (** how many gates were mirrored *)
}

(** [default_threshold] is the L1 near-identity radius (hardware dependent;
    0.2 keeps every remaining class solvable by the genAshN search bounds). *)
val default_threshold : float

(** [run ?r c] processes a lowered (arity <= 2) circuit. The output circuit
    followed by the permutation [final_mapping] is exactly equivalent to
    [c]. The rule reads each 2Q gate's {!Gate.kak}; every output 2Q gate
    carries its KAK: a kept gate the one the rule read, a mirrored gate
    one fresh decomposition of its new matrix. *)
val run : ?r:float -> Circuit.t -> result
