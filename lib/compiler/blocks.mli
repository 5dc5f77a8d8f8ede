(** Greedy linear block collection: partition a circuit into contiguous
    blocks over at most [w] wires, preserving semantics when each block is
    replaced by its fused unitary (in block order). *)

open Numerics

type block = {
  qubits : int list;  (** sorted wire set, size <= w *)
  gates : Gate.t list;  (** original gates, in order *)
}

(** [collect ~w c] partitions the whole circuit. Gates of arity > w each get
    their own block. *)
val collect : w:int -> Circuit.t -> block list

(** [block_unitary b] is the fused unitary on the block's wires (wire order =
    sorted [qubits]). *)
val block_unitary : block -> Mat.t

(** [count_2q b] counts 2Q gates inside the block. *)
val count_2q : block -> int

(** [to_circuit n blocks] re-emits the blocks' gates in order (identity
    transformation; used to check the partition). *)
val to_circuit : int -> block list -> Circuit.t

(** [kak_table gates] is a KAK for one pass over a circuit: applied to a
    4x4 unitary [u] it returns [Weyl.Kak.decompose u], running the
    decomposition once per distinct exact [u] (two matrices are the same
    only when all 32 floats have the same IEEE bits) and handing every
    later equal input the same record. It starts out holding the KAKs
    [gates] carry, keyed by their matrices, so a gate that already
    carries its KAK is never decomposed again. While any fault site is
    armed ({!Robust.Fault.enabled}) it reads and keeps nothing: every
    call decomposes, as if there were no table. Build one per pass; it
    is not safe to share between domains. *)
val kak_table : Gate.t list -> Mat.t -> Weyl.Kak.t

(** [fuse_2q c] consolidates maximal runs on each wire pair into single
    [su4] gates, dropping blocks that fuse to the identity class (they
    become pure 1Q gates). 1Q gates outside any 2Q block are merged and
    kept. The result contains only [su4] (label "su4") and 1Q gates and is
    exactly equivalent to [c]. Each fused gate carries its KAK, from one
    {!kak_table} over [c]: one decomposition per distinct exact block
    unitary, none for a block whose unitary is the matrix of a gate of
    [c] that carries its KAK. *)
val fuse_2q : Circuit.t -> Circuit.t
