(** Socket transport for the compilation service.

    [serve addr] binds a TCP or Unix-domain listener and serves the same
    protocol as {!Server} over sockets. A {e single event-loop thread}
    owns every fd: it [select]s over the listener, a self-pipe, and all
    open connections, runs a per-connection incremental frame scanner,
    and feeds complete requests to the shared {!Engine} worker pool.
    Workers never touch sockets — each job's response is rendered and
    appended to the originating connection's bounded write queue (under
    that connection's lock), and the event loop writes queued bytes out
    when the fd is ready, so many responses coalesce into one [write].
    Responses are matched client-side by ["id"]; completion order may
    differ from send order, exactly like the stdio server.

    {b Framing} is negotiated per connection by its first four bytes:
    [{!Frame.magic}] ("RQF1") selects length-prefixed binary frames
    (8-byte header, JSON payload — see {!Frame}); anything else is
    line-delimited JSON. Responses mirror the request framing. Overload
    refusals happen before negotiation and are always JSON lines.

    Lifecycle management (see DESIGN.md "Event loop, framing, and
    coalescing"):

    - {b backpressure} — at [max_connections] active connections a new
      client is answered with one [kind = "overloaded"] error line and
      closed instead of being buffered without bound; a connection whose
      write queue exceeds [max_write_buffer] (a peer not reading its
      responses) is dropped;
    - {b load shedding} — at [max_queue_depth] queued engine jobs a
      heavy op is answered [kind = "overloaded"] at parse time, before
      any solver work (stage ["serve.admission"]);
    - {b chaos sites} — with {!Robust.Fault} armed, the transport can
      drop ([frame_drop]) or mangle ([frame_corrupt]) response frames
      and reset connections on receipt ([conn_reset]); every injected
      failure still surfaces to the client as a typed error or clean
      disconnect, never a hang;
    - {b idle timeout} — a connection silent for [idle_timeout] seconds
      is answered with [kind = "timeout"] and closed;
    - {b frame cap} — a JSON line longer than [max_line_bytes], or a
      binary frame declaring a longer payload, is rejected as a
      [bad_request] naming the limit while the scanner discards (never
      buffers) the rest of the frame; a binary frame with a bad magic
      means the stream is desynced — one typed error, then close;
    - {b graceful drain} — a [shutdown] request (from any connection) or
      SIGINT stops accepting and reading, executes everything already
      queued, keeps flushing response bytes until every connection's
      queue is empty, and only then closes the sockets. In-flight
      requests still answer. *)

type addr = Tcp of string * int | Unix_path of string

(** [parse_addr "tcp:HOST:PORT"] / [parse_addr "unix:PATH"]. *)
val parse_addr : string -> (addr, string) result

val addr_to_string : addr -> string

(** Resolve to a connectable/bindable socket address (TCP hostnames go
    through the resolver). Shared with {!Client}. *)
val sockaddr : addr -> (Unix.sockaddr, string) result

type config = {
  server : Server.config;  (** engine config: workers, cache, seed *)
  max_connections : int;  (** accept backpressure threshold (default 64) *)
  idle_timeout : float;  (** seconds; [0.] disables (default 300.) *)
  max_line_bytes : int;  (** request frame cap (default {!Protocol.max_line_bytes}) *)
  max_write_buffer : int;
      (** per-connection response queue cap in bytes (default
          [8 * max_line_bytes]); an unread queue past this forfeits the
          connection *)
  max_queue_depth : int;
      (** admission control: a heavy op ([compile]/[pulses]/[batch])
          arriving while the engine queue holds at least this many jobs
          is shed with a typed [overloaded] (stage ["serve.admission"])
          before any solver work; [stats]/[shutdown] and parse errors
          always pass. [0] disables (default 256). *)
}

val default_config : config

type summary = {
  served : int;  (** responses written across all connections *)
  errors : int;  (** responses with [ok = false] *)
  connections : int;  (** connections accepted (admitted, not refused) *)
  refused : int;  (** connections turned away as [overloaded] *)
  elapsed : float;
}

(** [serve ?config ?ready addr] opens the cache, binds the listener,
    starts an {!Engine} built from [config.server], and blocks until
    drain. [ready] fires once the listener is bound, with the actual
    address (a TCP request for port [0] reports the kernel-assigned
    port — the ready banner is how tests spawn servers without port
    races). [Error] on bind failure or when the cache file cannot be
    opened; no engine is started in either case. *)
val serve :
  ?config:config -> ?ready:(addr -> unit) -> addr -> (summary, string) result
