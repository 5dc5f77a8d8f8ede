(** Bounded least-recently-used map (the store behind {!Memo}).

    O(1) [find]/[add] via a hash table over an intrusive doubly-linked
    recency list. Not thread-safe — callers hold their own lock. *)

type ('k, 'v) t

(** [create ~capacity] — [capacity >= 1] entries. *)
val create : capacity:int -> ('k, 'v) t

val length : ('k, 'v) t -> int

(** [find t k] promotes [k] to most-recently-used. *)
val find : ('k, 'v) t -> 'k -> 'v option

(** [add t k v] inserts or updates (promoting to most-recent) and returns
    the evicted least-recently-used binding, if the capacity overflowed. *)
val add : ('k, 'v) t -> 'k -> 'v -> ('k * 'v) option

(** [clear t] drops every binding. *)
val clear : ('k, 'v) t -> unit

(** Keys from most- to least-recently used (test/debug helper). *)
val keys : ('k, 'v) t -> 'k list
