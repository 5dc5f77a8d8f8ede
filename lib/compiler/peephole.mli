(** Adjacent-gate peephole fusion on the SU(4) layer.

    {!Blocks.fuse_2q} only merges 2Q gates that are literally adjacent
    on their wire pair; a commuting gate sitting between two gates on
    the same pair (the QAOA shape [ZZ(0,1); ZZ(1,2); ZZ(0,1)]) blocks
    the merge. This pass slides each 2Q gate left past gates it exactly
    commutes with (checked on the wire union's embedded unitaries) until
    it lands next to an earlier gate on the same pair, then fuses. It is
    purely structural — no synthesis, no RNG — and cheap, unlike
    {!Compact}'s search-based exchange. *)

(** [run c] — [c] must be an SU(4)-layer circuit (su4 + 1Q gates). The
    result is exactly equivalent (commutations are verified to [1e-9]
    in Frobenius norm) and contains only su4 + 1Q gates. At most 4 bubble
    sweeps. *)
val run : Circuit.t -> Circuit.t
