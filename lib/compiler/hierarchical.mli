(** Hierarchical synthesis (Section 5.1): fuse 2Q runs into SU(4)s,
    optionally DAG-compact, partition into w-qubit blocks and approximately
    resynthesize every block holding more than [m_th] SU(4)s with fewer. *)

(** [run rng c] applies the full pass to any circuit whose gates have arity
    <= 3 (3Q gates are counted through their block unitary), with the
    paper's settings: [w = 3], [m_th = 4] and at most 2 rounds;
    [compacting] defaults to true. The output contains only su4 and 1Q
    gates.

    Each block it tries counts one verdict under stage ["compiler.hier"]
    in {!Robust.Counters}: ["resynth_ok"] when it found fewer SU(4)s,
    ["no_gain"] when the search found nothing smaller, and ["fallback"]
    when resynthesis could not run (the ["hier_fail"] fault site, a NaN
    block unitary, or an exception, which also counts
    ["resynth_error"]). Every verdict but the first keeps the block's
    gates. *)
val run : ?compacting:bool -> Numerics.Rng.t -> Circuit.t -> Circuit.t
