(** Hierarchical synthesis (Section 5.1): fuse 2Q runs into SU(4)s,
    optionally DAG-compact, partition into w-qubit blocks and approximately
    resynthesize every block holding more than [m_th] SU(4)s with fewer. *)

(** [run rng c] applies the full pass to any circuit whose gates have arity
    <= 3 (3Q gates are counted through their block unitary), with the
    paper's settings: [w = 3], [m_th = 4] and at most 2 rounds;
    [compacting] defaults to true. The output contains only su4 and 1Q
    gates. *)
val run : ?compacting:bool -> Numerics.Rng.t -> Circuit.t -> Circuit.t
