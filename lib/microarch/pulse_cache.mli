(** Process-global pulse-synthesis cache (the persistence behind §4.5's
    gate-table reuse): solved genAshN pulses keyed by the canonical
    fingerprint of (coupling normal form, Weyl coordinates), both by
    their exact bits.

    Entries are raw pulse parameters plus the solve verdict, encoded as a
    versioned binary record with float bits preserved exactly — a warm
    replay is bit-identical to the solve it skipped. This module is
    deliberately independent of {!Genashn} (which consumes it): the
    subscheme travels as an integer tag.

    No cache is installed by default, so the solver pipeline behaves
    exactly as before unless a server/bench/CLI run opts in. *)

type entry = {
  solved : bool;  (** [true] = Solved, [false] = Degraded *)
  scheme : int;  (** {!Tau.subscheme} tag: 0 ND, 1 EA-same, 2 EA-opposite *)
  tau : float;
  x1 : float;
  x2 : float;
  delta : float;
  residual : float;  (** Degraded info (0, 0, "" for a Solved entry) *)
  retries : int;
  note : string;
}

(** Exact binary codec ([decode] is total: corrupt bytes give [None]). *)
val encode : entry -> string
val decode : string -> entry option

(** {1 Global installation} *)

val install : Cache.t -> unit
val uninstall : unit -> unit
val installed : unit -> Cache.t option

(** [with_cache c f] installs [c] for the duration of [f] (restoring the
    previous cache afterwards). *)
val with_cache : Cache.t -> (unit -> 'a) -> 'a

(** Installations so far: {!install}, {!uninstall}, and both the entry
    and the restore of {!with_cache} each count one. The genAshN class
    memo keys on it, so a cache installed while the memo is warm is still
    read and filled. *)
val generation : unit -> int

(** {1 Solver-facing lookups} (no-ops when nothing is installed) *)

val lookup : string -> entry option
val store : string -> entry -> unit
