(** Blocking client for the socket transport.

    One {!t} is one connection. The client supports pipelining without
    threads: {!send} any number of requests (optionally holding the
    [flush] so a burst goes out in one write), then {!recv_id} each
    response — the server answers in completion order, so responses for
    other outstanding ids are stashed and handed back when their turn
    comes.

    {b Framing}: [~frames:Binary] speaks the length-prefixed binary
    frame format ({!Frame}) instead of JSON lines; the server
    autodetects from the first bytes sent, so no handshake round-trip is
    needed. Server messages that precede negotiation (an overload
    refusal) are JSON lines even then — the binary receive path detects
    and surfaces them as their typed variant.

    Errors are typed in the {!Robust} discipline: every failure is a
    variant carrying what a retry policy needs, never an exception. The
    default retry ladder is deterministic (attempt [k] sleeps
    [backoff * 2^k]) so test runs and incident reproductions see
    identical timing; pass [jitter] (0..1) to spread each sleep over
    [±jitter] of its nominal value and decorrelate clients retrying in
    lockstep. Connect/retry activity is counted in {!Robust.Counters}
    under the stage ["serve.client"] ([connect], [connect_failed],
    [reconnect], [retry], [breaker_trip], [breaker_probe],
    [breaker_reject]), with or without an installed sink. *)

type error =
  | Connect_failed of { addr : string; attempts : int; detail : string }
  | Overloaded of string
      (** the server refused the connection at its [max_connections]
          backpressure threshold; reconnect after a backoff *)
  | Timed_out of string  (** the server idled this connection out *)
  | Disconnected  (** the peer closed; no further requests on this [t] *)
  | Io_error of string
  | Bad_response of string  (** a response frame that is not valid JSON *)
  | Server_error of { kind : string; stage : string; message : string; id : Json.t }
      (** an [ok = false] response: the typed error the server reported *)
  | Circuit_open of { retry_after : float }
      (** the local {!Breaker} is open: the call failed fast without
          touching the network; [retry_after] is the (approximate) time
          until the next half-open probe *)

(** Stable snake_case tag ("connect_failed", "overloaded", ...). *)
val error_kind : error -> string

val error_to_string : error -> string

(** Client-side circuit breaker for {!rpc}. After [threshold] consecutive
    overload-shaped failures ([Overloaded]/[Timed_out], or a
    [Server_error] whose kind is one of those — an admission-control
    shed) the breaker opens
    and calls fail locally with {!Circuit_open} for a jittered [cooldown];
    the first call after the cooldown is the half-open probe — success
    closes the breaker, failure reopens it. Successes and non-overload
    errors (the server answered) reset the failure run. Thread-safe; one
    breaker is typically shared by every client talking to one server. *)
module Breaker : sig
  type t

  (** Defaults: [threshold = 5], [cooldown = 1.0]s, [jitter = 0.2]
      (reopen spread over [cooldown * (1 ± jitter)]), deterministic
      [seed]. *)
  val create :
    ?threshold:int -> ?cooldown:float -> ?jitter:float -> ?seed:int -> unit -> t

  (** [admit b] — [Ok ()] to proceed, [Error (Circuit_open _)] to fail
      fast. Transitions open → half-open when the cooldown has passed. *)
  val admit : t -> (unit, error) result

  (** [record b result] feeds an attempt's outcome back. *)
  val record : t -> ('a, error) result -> unit

  (** ["closed"] / ["open"] / ["half_open"] (for reports). *)
  val state : t -> string

  (** Times the breaker has tripped (closed/half-open → open). *)
  val trips : t -> int
end

(** [seed_jitter s] makes backoff jitter deterministic (benches re-seed
    per run so p99 comparisons are reproducible). *)
val seed_jitter : int -> unit

type frames = Json_lines | Binary

type t

(** [connect ?retries ?backoff ?jitter ?frames ?recv_timeout addr] —
    [retries] extra attempts after the first (default 0) on the
    exponential [backoff] ladder (default 0.05s base; [jitter] as per the
    module doc); [frames] selects the wire format (default
    [Json_lines]); [recv_timeout] bounds every receive (seconds; unset =
    block forever). *)
val connect :
  ?retries:int ->
  ?backoff:float ->
  ?jitter:float ->
  ?frames:frames ->
  ?recv_timeout:float ->
  Transport.addr ->
  (t, error) result

val close : t -> unit

(** [send t body] assigns the next request id, injects it and the
    protocol version into [body] (an object; an existing ["id"] member is
    kept), writes one frame, and returns the id to {!recv_id} on.
    [~flush:false] keeps the frame in the output buffer — batch a
    pipelined burst, then {!flush} once. *)
val send : ?flush:bool -> t -> Json.t -> (Json.t, error) result

(** [send_line t line] writes one raw payload verbatim (as a line or a
    binary frame per the connection's mode) — no id/version injection,
    no JSON validation. For differential testing and protocol-level
    debugging; pair with {!recv}. *)
val send_line : ?flush:bool -> t -> string -> (unit, error) result

(** Flush frames held back by [send ~flush:false]. *)
val flush : t -> (unit, error) result

(** [recv_raw t] — next response payload as its raw JSON text, whatever
    its id. For measurement loops that match ids without a full parse. *)
val recv_raw : t -> (string, error) result

(** [recv t] — next response, whatever its id. *)
val recv : t -> (Json.t, error) result

(** [recv_id t id] — the response whose ["id"] is [id], stashing any
    other pipelined responses that arrive first. Connection-fatal error
    responses ([overloaded], [timeout]) surface as their typed variant no
    matter which id is awaited; an admission-control shed (stage
    ["serve.admission"]) is per-request — it answers its own id and the
    connection stays usable. *)
val recv_id : t -> Json.t -> (Json.t, error) result

(** [request t body] = {!send} + {!recv_id}; an [ok = false] response
    comes back as [Error (Server_error _)]. A send that dies on a closed
    socket first drains any typed refusal the server left behind. *)
val request : t -> Json.t -> (Json.t, error) result

(** [rpc ?retries ?backoff ?jitter ?frames ?breaker addr body] — one-shot
    convenience: connect, request, close, retrying [Connect_failed] and
    [Overloaded] on the backoff ladder. With [breaker], every attempt is
    gated by {!Breaker.admit} and its outcome fed to {!Breaker.record} —
    an open breaker short-circuits the whole call with {!Circuit_open}. *)
val rpc :
  ?retries:int ->
  ?backoff:float ->
  ?jitter:float ->
  ?frames:frames ->
  ?breaker:Breaker.t ->
  Transport.addr ->
  Json.t ->
  (Json.t, error) result
