(** A process-wide memo: a bounded {!Lru} behind one mutex, for a pure
    computation keyed by the exact bits of its inputs (the genAshN class
    memo and the synthesis search memo).

    The lock covers lookups and inserts, never the computation: two domains
    missing on one key both compute and store the same value. While any
    {!Robust.Fault} site is armed the memo is neither read nor filled,
    because an armed fault may shape the value; a value computed while a
    site was armed (checked again after the computation) is not stored.
    Counters ["memo_hit"], ["memo_miss"] and ["memo_evict"] under the
    caller's [stage] count its traffic; a bypassed call counts none. *)

type ('k, 'v) t

(** [create ~capacity] — [capacity >= 1] entries, least recently used
    evicted. *)
val create : capacity:int -> ('k, 'v) t

(** [find_or_compute t ~stage k f] is the value stored under [k], or else
    [f ()], stored under [k]. *)
val find_or_compute : ('k, 'v) t -> stage:string -> 'k -> (unit -> 'v) -> 'v

(** Entries held now. *)
val length : ('k, 'v) t -> int

(** [clear t] drops every entry. *)
val clear : ('k, 'v) t -> unit
