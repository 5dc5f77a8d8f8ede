(** Job-queue compilation server.

    [run] reads one JSON request per line from the input channel, fans the
    jobs out to a Domain-based worker pool through a thread-safe queue
    ({!Jobq}), and writes one JSON response per line to the output channel
    (completion order; match responses to requests by ["id"]). EOF or a
    [shutdown] request starts a graceful drain: queued jobs still execute,
    workers are joined, the output is flushed.

    Failures never kill a worker: malformed lines answer
    [kind = "bad_request"], solver failures surface their typed
    {!Robust.Err} (including [budget_exceeded] for per-request
    {!Robust.Budget} limits), and any stray exception answers
    [kind = "internal_error"].

    When [cache_path] is set, a {!Cache} store is opened there and
    installed as the process-global pulse-synthesis cache for the run
    (shared by all workers; hits skip Algorithm 1). *)

type config = {
  workers : int;  (** worker domains; [0] = auto ({!Numerics.Par.default_domains}) *)
  cache_path : string option;
  cache_capacity : int;  (** LRU-tier entries (default 4096) *)
  seed : int64;  (** rng seed for compilation jobs (deterministic per request) *)
}

val default_config : config

type summary = {
  served : int;  (** responses written *)
  errors : int;  (** responses with [ok = false] *)
  elapsed : float;
}

(** [run ?config ic oc] serves until EOF/shutdown and reports the drain
    summary; [Error] only when the cache file cannot be opened. *)
val run : ?config:config -> in_channel -> out_channel -> (summary, string) result

(** [open_cache config] opens the configured cache store ([Ok None] when
    [cache_path] is unset). Shared with {!Transport}, which reuses the
    same config record for its execution engine. *)
val open_cache : config -> (Cache.t option, string) result
