(** Content-addressed cache: one in-memory index over an optional
    append-only on-disk store ({!Store}).

    Keys are canonical fingerprints ({!Fingerprint}), values opaque byte
    strings. The index holds every key: a disk-backed cache loads the
    store into it when opened, and [add] writes the index and appends to
    the store (the append is skipped when the key already holds the same
    bytes, so warm re-runs do not grow the file). A memory-only cache
    keeps its keys in the same index, with no store behind it. All
    operations are thread-safe — one cache can be shared by the server's
    worker domains.

    Hit/miss/insert counters are mirrored into {!Robust.Counters} under
    stage ["cache"] so every bench/robustness report includes cache
    effectiveness. *)

type t

type stats = {
  keys : int;  (** distinct keys held *)
  file_records : int;
      (** physical frames on disk, superseded duplicates included — the
          gap to [keys] is what {!compact} reclaims *)
  disk_bytes : int;  (** file size, header included (0 when memory-only) *)
  torn_bytes : int;  (** torn tail dropped at load time *)
  corrupt_records : int;  (** mid-file records skipped at load time *)
  compactions : int;  (** {!compact} runs on this handle *)
  hits : int;
  misses : int;
  inserts : int;
}

(** [create ?sync ?path ()] opens (or creates) the store at [path];
    omitting [path] gives a memory-only cache. A torn tail on disk is
    dropped (and counted) — [Error] only for an unreadable file or one
    that is not a cache store. Default [sync]: {!Store.default_sync}
    (periodic fsync). *)
val create : ?sync:Store.sync -> ?path:string -> unit -> (t, string) result

val find : t -> string -> string option
val add : t -> string -> string -> unit
val path : t -> string option
val stats : t -> stats

(** [compact t] atomically rewrites the backing file to one frame per
    distinct key (latest value wins), dropping superseded duplicates and
    any corrupt/torn bytes; returns the new file size. [Ok 0] for a
    memory-only cache. The cache stays usable throughout (callers are
    blocked for the duration of the rewrite). *)
val compact : t -> (int, string) result

(** {!stats} (plus the path, [null] for a memory-only cache) as a JSON
    object, for the [stats] server op and [cache stats] CLI. *)
val stats_json : t -> Robust.Json.t

(** Flushes and closes the on-disk tier; the cache must not be used after. *)
val close : t -> unit
