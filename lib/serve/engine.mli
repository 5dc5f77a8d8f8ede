(** Request-execution engine shared by every server front-end.

    The stdio server ({!Server}) and the socket transport ({!Transport})
    both feed parsed protocol lines into one engine: a thread-safe job
    queue drained by a Domain worker pool. Each job carries its own
    [respond] closure, so responses are routed back to wherever the
    request came from (the stdout lock, or the originating connection's
    write lock) — the engine itself never owns an output channel.

    The engine owns the process-global pulse cache for its lifetime (when
    one is given) and a self-installed {!Obs.Recorder} when the embedding
    process has no sink, so the [stats] op always reports live span
    aggregates. Both are released by {!drain}.

    Every request is one job, a flight, and one function turns its
    parsed body into the reply (a parse error's [bad_request], an
    expired deadline's refusal, or the executed op); each waiter gets
    that reply under its own id.

    {b Single-flight coalescing} (on by default): when K in-flight
    requests share a {!Protocol.body_key} — identical parsed bodies, every
    float equal bit for bit — the engine executes the body once and fans
    the one result (or the one typed error) out to all K waiters, each
    under its own request id. Requests attach at submit time and detach when the
    leader's result is ready, so a storm of identical cold-cache solves
    costs one solver run. Coalescing shares only concurrent work; it
    caches nothing (the pulse cache does that). Counted in
    {!Robust.Counters}: ["serve"]/[coalesce_hit] for each request that
    joins a flight, ["serve.coalesce"]/[leader] for each flight started,
    and the ["serve.coalesce"] gauge [inflight].

    {b Deadlines}: a request carrying {!Protocol.body.deadline_ms} is
    stamped at submit time; a job whose deadline has already passed at
    dequeue is answered with a typed [deadline_exceeded] (stage
    ["serve.deadline"]) without ever invoking the solver, and one that
    still has time gets its {!Robust.Budget} wall clock clamped to the
    remainder. Counted in {!Robust.Counters} ["serve"]/[deadline_exceeded].

    {b Supervision}: each worker domain runs under a supervisor; an
    exception escaping the per-job guards answers the in-flight request
    (fanning through the coalescing waiter list) with a typed
    [internal_error], restarts the worker loop, and counts the restart
    ({!Robust.Counters} ["serve"]/[worker_restart]) —
    a poisoned request can never shrink the pool. *)

type t

(** [create ?workers ?coalesce ?cache ~seed ()] spawns the
    worker domains ([workers = 0] or omitted:
    {!Numerics.Par.default_domains}) and, when [cache] is given, installs
    it as the process-global pulse-synthesis cache shared by all workers
    (and hence all connections). [coalesce = false] disables
    single-flight admission (every request executes independently — the
    differential baseline). *)
val create :
  ?workers:int ->
  ?coalesce:bool ->
  ?cache:Cache.t ->
  seed:int64 ->
  unit ->
  t

(** [submit t parsed ~respond] enqueues one request. [respond] is called
    exactly once from a worker domain with the complete response object
    (id already attached); it must be thread-safe and must not raise.
    Coalesced requests share one execution but still get one [respond]
    call each. *)
val submit : t -> Protocol.parsed -> respond:(Json.t -> unit) -> unit

(** [exec_once t parsed] executes one request synchronously on the
    calling thread and returns the complete response (id attached):
    no queue, no workers, no coalescing. The direct path for embedders
    (one-shot tools, tests, benchmark baselines) that want the engine's
    dispatch and accounting without the serving machinery. *)
val exec_once : t -> Protocol.parsed -> Json.t

(** [drain t] closes the queue, executes everything already enqueued,
    joins the workers, then releases the cache and any owned recorder.
    Queued jobs still answer — shutdown is a drain, not a drop. *)
val drain : t -> unit

val served : t -> int  (** responses produced so far *)

val errors : t -> int  (** responses with [ok = false] *)

val queue_depth : t -> int
