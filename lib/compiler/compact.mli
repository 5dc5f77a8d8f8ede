(** DAG compacting (Section 5.1.3): exchange "approximately commutative"
    adjacent SU(4) pairs to concentrate 2Q gates into fewer, denser 3-qubit
    blocks before approximate synthesis. *)

(** [compactness c] scores the 3-qubit block partition: sum over blocks
    of (#2Q)^2, so unbalanced partitions (dense blocks + sparse blocks)
    score higher at equal gate count. *)
val compactness : Circuit.t -> float

(** [exchangeable rng g1 g2] tests whether the ordered pair [g1; g2] (2Q
    gates sharing exactly one wire) can be rewritten as [g2'; g1'] on the
    swapped pairs within infidelity 1e-9; returns the replacement on
    success. *)
val exchangeable : Numerics.Rng.t -> Gate.t -> Gate.t -> (Gate.t * Gate.t) option

(** [run rng c] hill-climbs over feasible exchanges while the partition
    compactness improves. Input must be an su4+1Q circuit; semantics are
    preserved within the synthesis tolerance. At most 2 rounds. *)
val run : Numerics.Rng.t -> Circuit.t -> Circuit.t
