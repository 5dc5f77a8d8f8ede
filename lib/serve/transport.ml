type addr = Tcp of string * int | Unix_path of string

let addr_to_string = function
  | Tcp (h, p) -> Printf.sprintf "tcp:%s:%d" h p
  | Unix_path p -> "unix:" ^ p

let parse_addr s =
  match String.index_opt s ':' with
  | None -> Error (Printf.sprintf "bad address %S (expected tcp:HOST:PORT or unix:PATH)" s)
  | Some i -> (
    let scheme = String.sub s 0 i in
    let rest = String.sub s (i + 1) (String.length s - i - 1) in
    match scheme with
    | "unix" ->
      if rest = "" then Error "unix: needs a socket path" else Ok (Unix_path rest)
    | "tcp" -> (
      match String.rindex_opt rest ':' with
      | None -> Error (Printf.sprintf "bad tcp address %S (expected tcp:HOST:PORT)" s)
      | Some j -> (
        let host = String.sub rest 0 j in
        let port = String.sub rest (j + 1) (String.length rest - j - 1) in
        match int_of_string_opt port with
        | Some p when p >= 0 && p < 65536 && host <> "" -> Ok (Tcp (host, p))
        | _ -> Error (Printf.sprintf "bad tcp port %S" port)))
    | other ->
      Error (Printf.sprintf "unknown scheme %S (expected tcp: or unix:)" other))

type config = {
  server : Server.config;
  max_connections : int;
  idle_timeout : float;
  max_line_bytes : int;
  max_write_buffer : int;
  max_queue_depth : int;
}

let default_config =
  {
    server = Server.default_config;
    max_connections = 64;
    idle_timeout = 300.0;
    max_line_bytes = Protocol.max_line_bytes;
    max_write_buffer = 8 * Protocol.max_line_bytes;
    max_queue_depth = 256;
  }

type summary = {
  served : int;
  errors : int;
  connections : int;
  refused : int;
  elapsed : float;
}

let stage = "serve.net"

(* --------------------------------------------------------- connections *)

(* Per-connection frame mode, negotiated by first-bytes autodetection:
   a connection whose very first 4 bytes are {!Frame.magic} speaks
   length-prefixed binary frames for its whole lifetime and is answered
   in kind; anything else is JSON lines. *)
type frame_mode = Detect | Json_lines | Binary

(* One per admitted client. Read-side state ([mode], [rbuf], scanners,
   [last_rx], [read_open]) belongs to the event-loop thread alone.
   Write-side state is shared with the worker domains under [wlock]:
   workers render a response and append it to the bounded [wbuf]; the
   event loop moves [wbuf] into [sending] and writes it out when the fd
   is ready. The fd itself is touched only by the event loop, so there
   is no close/reuse race with workers by construction. *)
type conn = {
  fd : Unix.file_descr;
  mutable mode : frame_mode;
  rbuf : Buffer.t;  (* partial frame; bounded by the frame cap *)
  mutable discard_line : bool;  (* JSON mode: dropping an oversized line *)
  mutable discard_bytes : int;  (* binary mode: payload bytes left to skip *)
  mutable frame_len : int;  (* binary mode: declared length; -1 = awaiting header *)
  mutable last_rx : float;
  mutable read_open : bool;
  wlock : Mutex.t;
  wbuf : Buffer.t;  (* bytes queued by workers, bounded by [max_write_buffer] *)
  mutable sending : string;  (* chunk in flight to the fd *)
  mutable sent_off : int;
  mutable writable : bool;  (* peer still accepting bytes, queue not overflowed *)
  mutable fd_closed : bool;
  mutable pending : int;  (* jobs submitted, responses not yet enqueued *)
  mutable want_close : bool;  (* no more requests will arrive *)
}

type state = {
  config : config;
  engine : Engine.t;
  stopping : bool Atomic.t;
  drained : bool Atomic.t;
  listen_fd : Unix.file_descr;
  (* self-pipe: workers (and the SIGINT handler) wake the event loop out
     of [select] — after enqueueing response bytes, or to start a drain *)
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  mutable conns : conn list;  (* event-loop thread only *)
  mutable accepted : int;
  mutable refused : int;
}

let wake st =
  try ignore (Unix.write st.wake_w (Bytes.make 1 '!') 0 1)
  with Unix.Unix_error _ -> () (* pipe full: the loop is waking anyway *)

let initiate_drain st =
  (* minimal on purpose: callable from the SIGINT handler. The event
     loop notices [stopping] and does the actual teardown. *)
  if Atomic.compare_and_set st.stopping false true then wake st

(* ------------------------------------------------------------ out path *)

(* call with [c.wlock] held *)
let queued_bytes_locked c = String.length c.sending - c.sent_off + Buffer.length c.wbuf

let has_output c =
  Mutex.lock c.wlock;
  let b = c.writable && (not c.fd_closed) && queued_bytes_locked c > 0 in
  Mutex.unlock c.wlock;
  b

(* deliverable bytes the fd refused to take (a partial or would-block
   write). Only these make the event loop watch the fd for writability:
   bytes parked in [wbuf] for batching have a guaranteed future flush
   (their burst's last response), and watching an always-writable fd for
   them would turn every parked batch into an instant select wakeup —
   a busy loop that defeats the batching *)
let write_stalled c =
  Mutex.lock c.wlock;
  let b =
    c.writable && (not c.fd_closed) && String.length c.sending - c.sent_off > 0
  in
  Mutex.unlock c.wlock;
  b

(* call with [c.wlock] held: the peer is gone or forfeited its
   connection — drop everything queued and stop writing *)
let discard_output_locked c =
  c.writable <- false;
  Buffer.clear c.wbuf;
  c.sending <- "";
  c.sent_off <- 0

(* call with [c.wlock] held: a peer that stops draining its responses
   forfeits the connection instead of growing the server without bound.
   [true] when [data] would overflow the write queue; the caller then
   wakes the event loop so the sweep retires the connection promptly *)
let overflow_locked st c data =
  let over = queued_bytes_locked c + String.length data > st.config.max_write_buffer in
  if over then begin
    discard_output_locked c;
    c.want_close <- true;
    Robust.Counters.incr ~stage "write_overflow"
  end;
  over

(* call with [c.wlock] held: push queued bytes at the fd until it would
   block. Returns [true] when deliverable output remains (the event loop
   must watch the fd for writability). *)
let rec flush_locked c =
  if c.sent_off >= String.length c.sending && Buffer.length c.wbuf > 0 then begin
    (* swap the queued bytes in as one chunk: every response enqueued
       since the last flush goes out in a single write *)
    c.sending <- Buffer.contents c.wbuf;
    Buffer.clear c.wbuf;
    c.sent_off <- 0
  end;
  let len = String.length c.sending in
  if c.writable && (not c.fd_closed) && c.sent_off < len then begin
    match
      Unix.write c.fd (Bytes.unsafe_of_string c.sending) c.sent_off (len - c.sent_off)
    with
    | n ->
      c.sent_off <- c.sent_off + n;
      (* bytes queued behind a stalled chunk have no flush of their own
         coming (their burst's last response found the chunk in flight),
         so once the chunk is out they go next *)
      if c.sent_off = len && Buffer.length c.wbuf > 0 then ignore (flush_locked c)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
      ()
    | exception Unix.Unix_error _ -> discard_output_locked c
  end;
  c.writable && (not c.fd_closed) && queued_bytes_locked c > 0

let render c (json : Json.t) =
  match c.mode with
  | Binary -> Frame.encode (Json.to_string json)
  | Json_lines | Detect -> Json.to_string json ^ "\n"

(* batch ceiling for pipelined responses: below this, a response whose
   connection still has requests in flight parks in [wbuf] and rides out
   with a successor's write — one syscall covers a burst *)
let batch_bytes = 16384

(* chaos-harness mangling: keep the framing (newline / binary header)
   intact but overwrite a run of payload bytes, so the client receives a
   well-delimited frame whose content no longer parses — a typed
   [Bad_response], never a hang *)
let corrupt_frame c data =
  let b = Bytes.of_string data in
  let start = match c.mode with Binary -> Frame.header_bytes + 1 | _ -> 1 in
  let stop = min (Bytes.length b - 2) (start + 12) in
  for i = start to stop do
    Bytes.set b i '#'
  done;
  Robust.Counters.incr ~stage "fault_frame_corrupt";
  Bytes.to_string b

(* append rendered bytes to the connection's bounded write queue and
   optimistically write them out right here (the fd is nonblocking and
   the lock excludes the event loop) — the common case costs one [write]
   from the responding worker, no wakeup round-trip; anything already
   queued (a previous partial write, a concurrent worker's response)
   rides along in the same [write]. Only when the socket would block
   does the event loop take over. [reply] marks one of the connection's
   [pending] responses: it is counted off under the same lock (so the
   retire sweep never sees the count drop before the bytes land), and
   while more replies are pending the bytes park in [wbuf] until the
   burst's last reply, or the one that crosses [batch_bytes], flushes
   them all in one write. *)
let enqueue st c ~reply data =
  Mutex.lock c.wlock;
  if reply then c.pending <- c.pending - 1;
  let need_wake =
    if c.fd_closed || not c.writable then false
    else if overflow_locked st c data then true
    else begin
      Buffer.add_string c.wbuf data;
      if reply && c.pending > 0 && Buffer.length c.wbuf < batch_bytes then false
      else flush_locked c
    end
  in
  Mutex.unlock c.wlock;
  if need_wake then wake st

(* the respond closure the engine calls from a worker domain: every
   submitted job responds exactly once, so the reply is batched against
   the connection's pending count *)
let conn_respond st c json =
  let data = render c json in
  (* transport fault sites fire between render and enqueue: the engine
     has done its work and accounting; only the wire delivery is harmed.
     A dropped frame enqueues no bytes, but replies parked for batching
     must still flush when this was the burst's last pending reply. *)
  let data =
    if not (Robust.Fault.enabled ()) then data
    else if Robust.Fault.fire_p "frame_drop" then begin
      Robust.Counters.incr ~stage "fault_frame_drop";
      ""
    end
    else if Robust.Fault.fire_p "frame_corrupt" then corrupt_frame c data
    else data
  in
  enqueue st c ~reply:true data

(* Admission control: a heavy op arriving while the engine queue is at
   capacity is shed right here — a typed [overloaded] costs one JSON
   render instead of a solver slot, and the client's breaker/backoff gets
   an honest signal instead of a growing queue-wait. Control and
   read-only ops ([stats], [shutdown]) and parse errors always pass:
   refusing those would blind operators exactly when the server is
   busiest. *)
let submit_conn st c parsed =
  let shed =
    st.config.max_queue_depth > 0
    && (match parsed.Protocol.body with
       | Ok { op = Protocol.Compile _ | Protocol.Pulses _ | Protocol.Batch _; _ } ->
         Engine.queue_depth st.engine >= st.config.max_queue_depth
       | _ -> false)
  in
  Mutex.lock c.wlock;
  c.pending <- c.pending + 1;
  Mutex.unlock c.wlock;
  if shed then begin
    Robust.Counters.incr ~stage "shed";
    conn_respond st c
      (Protocol.error_response ~id:parsed.Protocol.id ~kind:"overloaded"
         ~stage:"serve.admission"
         (Printf.sprintf
            "queue depth at capacity (%d); request shed before execution"
            st.config.max_queue_depth))
  end
  else Engine.submit st.engine parsed ~respond:(conn_respond st c)

(* ------------------------------------------------------ frame scanning *)

let oversize st c =
  Robust.Counters.incr ~stage "oversize_frame";
  submit_conn st c
    {
      Protocol.id = Json.Null;
      body = Error (Protocol.oversize_message st.config.max_line_bytes);
    }

let handle_payload st c payload =
  if String.trim payload <> "" then
    if Robust.Fault.enabled () && Robust.Fault.fire_p "conn_reset" then begin
      (* the connection dies instead of handling the request: both
         directions shut down, queued output discarded — the client sees
         a clean EOF/reset (typed [Disconnected]), never a hang *)
      Robust.Counters.incr ~stage "fault_conn_reset";
      c.read_open <- false;
      c.want_close <- true;
      Mutex.lock c.wlock;
      discard_output_locked c;
      Mutex.unlock c.wlock;
      try Unix.shutdown c.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()
    end
    else begin
      let p = Protocol.parse_line ~max_bytes:st.config.max_line_bytes payload in
      submit_conn st c p;
      match p.body with
      | Ok { op = Protocol.Shutdown; _ } -> initiate_drain st
      | _ -> ()
    end

(* JSON-lines scanner: newline search over the fresh chunk (no per-byte
   buffering), partial lines accumulate in [rbuf] up to the frame cap;
   past it the oversized line answers one typed bad_request and is
   discarded in O(1) memory. *)
let feed_json st c s =
  let max_bytes = st.config.max_line_bytes in
  let len = String.length s in
  let rec go pos =
    if pos < len then
      match String.index_from_opt s pos '\n' with
      | None ->
        if not c.discard_line then begin
          let seg = len - pos in
          if Buffer.length c.rbuf + seg > max_bytes then begin
            Buffer.clear c.rbuf;
            c.discard_line <- true;
            oversize st c
          end
          else Buffer.add_substring c.rbuf s pos seg
        end
      | Some nl ->
        (if c.discard_line then c.discard_line <- false
         else begin
           let seg = nl - pos in
           if Buffer.length c.rbuf + seg > max_bytes then begin
             Buffer.clear c.rbuf;
             oversize st c
           end
           else begin
             Buffer.add_substring c.rbuf s pos seg;
             let line = Buffer.contents c.rbuf in
             Buffer.clear c.rbuf;
             handle_payload st c line
           end
         end);
        go (nl + 1)
  in
  go 0

(* Binary scanner: 8-byte header (magic + u32le payload length), then
   exactly that many payload bytes. An over-cap declared length answers
   one typed bad_request and skips the payload by counting (never
   buffering); a bad magic means the stream is desynced beyond recovery —
   answer a typed error and stop reading. *)
let feed_binary st c s =
  let max_bytes = st.config.max_line_bytes in
  let len = String.length s in
  let rec go pos =
    if pos < len && c.read_open then
      if c.discard_bytes > 0 then begin
        let k = min c.discard_bytes (len - pos) in
        c.discard_bytes <- c.discard_bytes - k;
        go (pos + k)
      end
      else if c.frame_len < 0 then begin
        let need = Frame.header_bytes - Buffer.length c.rbuf in
        let k = min need (len - pos) in
        Buffer.add_substring c.rbuf s pos k;
        if Buffer.length c.rbuf = Frame.header_bytes then begin
          let hdr = Buffer.contents c.rbuf in
          Buffer.clear c.rbuf;
          match Frame.decode_header hdr 0 with
          | Error msg ->
            Robust.Counters.incr ~stage "frame_desync";
            submit_conn st c
              {
                Protocol.id = Json.Null;
                body = Error (Printf.sprintf "binary frame desync: %s" msg);
              };
            c.read_open <- false;
            c.want_close <- true;
            (try Unix.shutdown c.fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ())
          | Ok n when n > max_bytes ->
            oversize st c;
            c.discard_bytes <- n;
            go (pos + k)
          | Ok n ->
            c.frame_len <- n;
            go (pos + k)
        end
      end
      else begin
        let need = c.frame_len - Buffer.length c.rbuf in
        let k = min need (len - pos) in
        Buffer.add_substring c.rbuf s pos k;
        if Buffer.length c.rbuf = c.frame_len then begin
          let payload = Buffer.contents c.rbuf in
          Buffer.clear c.rbuf;
          c.frame_len <- -1;
          handle_payload st c payload
        end;
        go (pos + k)
      end
  in
  go 0

let feed st c s =
  match c.mode with
  | Json_lines -> feed_json st c s
  | Binary -> feed_binary st c s
  | Detect ->
    (* at most 3 bytes ever wait here, so the concatenation is O(1) *)
    let pre = Buffer.contents c.rbuf in
    Buffer.clear c.rbuf;
    let all = if pre = "" then s else pre ^ s in
    let n = String.length all in
    if n < 4 && Frame.matches_magic_prefix all 0 n then Buffer.add_string c.rbuf all
    else if Frame.matches_magic_prefix all 0 n then begin
      c.mode <- Binary;
      Robust.Counters.incr ~stage "binary_conn";
      feed_binary st c all
    end
    else begin
      c.mode <- Json_lines;
      feed_json st c all
    end

(* ------------------------------------------------------------ readers *)

let read_chunk = Bytes.create 65536 (* event-loop thread only *)

let handle_read st c =
  match Unix.read c.fd read_chunk 0 (Bytes.length read_chunk) with
  | 0 ->
    (* peer closed (or the drain half-closed us): flush what is queued,
       answer what is pending, then retire *)
    c.read_open <- false;
    c.want_close <- true
  | n ->
    c.last_rx <- Unix.gettimeofday ();
    feed st c (Bytes.sub_string read_chunk 0 n)
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error _ ->
    (* reset / bad fd: nothing further to deliver *)
    c.read_open <- false;
    c.writable <- false;
    c.want_close <- true

(* ------------------------------------------------------------- writers *)

let flush_out c =
  Mutex.lock c.wlock;
  ignore (flush_locked c);
  Mutex.unlock c.wlock

(* -------------------------------------------------------------- sweeps *)

(* the wlock makes the close atomic with respect to a worker's
   optimistic write: no fd is ever closed (and its number reused by a
   fresh accept) while another thread is mid-write on it *)
let close_conn st c =
  Mutex.lock c.wlock;
  let do_close = not c.fd_closed in
  if do_close then c.fd_closed <- true;
  Mutex.unlock c.wlock;
  if do_close then begin
    (try Unix.close c.fd with Unix.Unix_error _ -> ());
    st.conns <- List.filter (fun c' -> c' != c) st.conns;
    Robust.Counters.set_gauge ~stage "active_connections" (float_of_int (List.length st.conns))
  end

let idle_sweep st =
  let timeout = st.config.idle_timeout in
  if timeout > 0.0 then begin
    let now = Unix.gettimeofday () in
    List.iter
      (fun c ->
        if c.read_open && now -. c.last_rx > timeout then begin
          Robust.Counters.incr ~stage "idle_timeout";
          enqueue st c ~reply:false
            (render c
               (Protocol.error_item ~kind:"timeout" ~stage
                  (Printf.sprintf "connection idle for more than %gs; closing" timeout)));
          c.read_open <- false;
          c.want_close <- true;
          try Unix.shutdown c.fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ()
        end)
      st.conns
  end

let retire_sweep st =
  List.iter
    (fun c ->
      let ready =
        Mutex.lock c.wlock;
        let r =
          c.want_close && c.pending <= 0
          && ((not c.writable) || queued_bytes_locked c = 0)
        in
        Mutex.unlock c.wlock;
        r
      in
      if ready then close_conn st c)
    (* snapshot: close_conn rewrites the list *)
    st.conns

(* -------------------------------------------------------------- accept *)

let rec write_all fd b off len =
  if len > 0 then begin
    let n = try Unix.write fd b off len with Unix.Unix_error (Unix.EINTR, _, _) -> 0 in
    write_all fd b (off + n) (len - n)
  end

let admit st fd =
  (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
  Unix.set_nonblock fd;
  let c =
    {
      fd;
      mode = Detect;
      rbuf = Buffer.create 512;
      discard_line = false;
      discard_bytes = 0;
      frame_len = -1;
      last_rx = Unix.gettimeofday ();
      read_open = true;
      wlock = Mutex.create ();
      wbuf = Buffer.create 512;
      sending = "";
      sent_off = 0;
      writable = true;
      fd_closed = false;
      pending = 0;
      want_close = false;
    }
  in
  st.conns <- c :: st.conns;
  st.accepted <- st.accepted + 1;
  Robust.Counters.incr ~stage "accept";
  Robust.Counters.set_gauge ~stage "active_connections" (float_of_int (List.length st.conns))

(* refusal happens before negotiation, so it is always a JSON line (a
   binary client surfaces it through its line fallback) *)
let refuse st fd =
  st.refused <- st.refused + 1;
  Robust.Counters.incr ~stage "refused";
  let line =
    Json.to_string
      (Protocol.error_item ~kind:"overloaded" ~stage
         (Printf.sprintf "server at capacity (%d connections); retry with backoff"
            st.config.max_connections))
    ^ "\n"
  in
  (try write_all fd (Bytes.unsafe_of_string line) 0 (String.length line)
   with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let accept_burst st =
  let continue = ref true in
  while !continue do
    match Unix.accept ~cloexec:true st.listen_fd with
    | fd, _peer ->
      if Atomic.get st.stopping then (try Unix.close fd with Unix.Unix_error _ -> ())
      else if List.length st.conns >= st.config.max_connections then refuse st fd
      else admit st fd
    | exception
        Unix.Unix_error
          ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR | Unix.ECONNABORTED), _, _) ->
      continue := false
  done

(* ---------------------------------------------------------- event loop *)

let drain_wake_pipe st =
  let b = Bytes.create 512 in
  match Unix.read st.wake_r b 0 512 with
  | _ -> ()
  | exception Unix.Unix_error _ -> ()

(* One thread owns every fd: [select] watches the listener, the wake
   pipe, every open connection for readability, and connections with
   queued response bytes for writability. The 0.25s timeout doubles as
   the idle-timeout sweep tick and the SIGINT poll (the runtime delivers
   signal handlers on the main domain once it re-enters OCaml code). *)
let event_loop st =
  while not (Atomic.get st.stopping) do
    let rfds =
      st.listen_fd :: st.wake_r
      :: List.filter_map
           (fun c -> if c.read_open && not c.fd_closed then Some c.fd else None)
           st.conns
    in
    let wconns = List.filter write_stalled st.conns in
    (match Unix.select rfds (List.map (fun c -> c.fd) wconns) [] 0.25 with
    | readable, writable, _ ->
      if List.mem st.wake_r readable then begin
        (* a worker's optimistic write would have blocked: retry every
           stalled connection now — everything enqueued since the wake
           goes out in this one batch *)
        drain_wake_pipe st;
        List.iter (fun c -> if write_stalled c then flush_out c) st.conns
      end;
      List.iter (fun c -> if List.mem c.fd writable then flush_out c) wconns;
      List.iter
        (fun c ->
          if c.read_open && (not c.fd_closed) && List.mem c.fd readable then
            handle_read st c)
        st.conns;
      if (not (Atomic.get st.stopping)) && List.mem st.listen_fd readable then
        accept_burst st
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    idle_sweep st;
    retire_sweep st
  done

(* drain: stop reading everywhere, let the engine finish everything
   already queued (responses keep landing in the write queues), and keep
   flushing until the engine is drained and every deliverable byte is
   out. The engine drains on a helper thread so this loop can keep
   writing concurrently — a full write queue never deadlocks the drain. *)
let flush_until_drained st =
  List.iter
    (fun c ->
      c.read_open <- false;
      try Unix.shutdown c.fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ())
    st.conns;
  let drainer =
    Thread.create
      (fun () ->
        Engine.drain st.engine;
        Atomic.set st.drained true;
        wake st)
      ()
  in
  let rec loop () =
    let pending_out = List.filter has_output st.conns in
    if (not (Atomic.get st.drained)) || pending_out <> [] then begin
      (match Unix.select [ st.wake_r ] (List.map (fun c -> c.fd) pending_out) [] 0.05 with
      | readable, writable, _ ->
        if List.mem st.wake_r readable then drain_wake_pipe st;
        List.iter (fun c -> if List.mem c.fd writable then flush_out c) pending_out
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  loop ();
  Thread.join drainer;
  List.iter (fun c -> close_conn st c) st.conns

(* ----------------------------------------------------------------- bind *)

let resolve_host host =
  match Unix.inet_addr_of_string host with
  | ip -> Ok ip
  | exception _ -> (
    match (Unix.gethostbyname host).Unix.h_addr_list with
    | [||] -> Error (Printf.sprintf "host %S resolves to no address" host)
    | addrs -> Ok addrs.(0)
    | exception Not_found -> Error (Printf.sprintf "cannot resolve host %S" host))

let sockaddr = function
  | Tcp (host, port) -> (
    match resolve_host host with
    | Error e -> Error e
    | Ok ip -> Ok (Unix.ADDR_INET (ip, port)))
  | Unix_path path -> Ok (Unix.ADDR_UNIX path)

let bind_listener addr =
  match sockaddr addr with
  | Error e -> Error e
  | Ok sa -> (
    let fd = Unix.socket ~cloexec:true (Unix.domain_of_sockaddr sa) Unix.SOCK_STREAM 0 in
    let fail msg =
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error msg
    in
    try
      (match addr with
      | Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true
      | Unix_path path -> (
        match Unix.stat path with
        | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink path (* stale socket *)
        | _ -> failwith (Printf.sprintf "%s exists and is not a socket" path)
        | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()));
      Unix.bind fd sa;
      Unix.listen fd 128;
      (* a TCP port 0 binds a kernel-assigned port: report the real one *)
      match Unix.getsockname fd with
      | Unix.ADDR_INET (a, p) -> Ok (fd, Tcp (Unix.string_of_inet_addr a, p))
      | _ -> Ok (fd, addr)
    with
    | Unix.Unix_error (e, _, _) ->
      fail (Printf.sprintf "bind %s: %s" (addr_to_string addr) (Unix.error_message e))
    | Failure msg -> fail msg)

(* ---------------------------------------------------------------- serve *)

let serve ?(config = default_config) ?ready addr =
  let t0 = Unix.gettimeofday () in
  match Server.open_cache config.server with
  | Error e -> Error e
  | Ok cache -> (
    match bind_listener addr with
    | Error e ->
      (* nothing else exists yet: no worker domains, no installed cache *)
      Option.iter Cache.close cache;
      Error e
    | Ok (listen_fd, actual) ->
      let cleanup_path () =
        match addr with
        | Unix_path p -> (try Unix.unlink p with Unix.Unix_error _ -> ())
        | Tcp _ -> ()
      in
      let engine =
        Engine.create ~workers:config.server.Server.workers ?cache
          ~seed:config.server.Server.seed ()
      in
      let wake_r, wake_w = Unix.pipe ~cloexec:true () in
      Unix.set_nonblock listen_fd;
      Unix.set_nonblock wake_r;
      Unix.set_nonblock wake_w;
      let st =
        {
          config;
          engine;
          stopping = Atomic.make false;
          drained = Atomic.make false;
          listen_fd;
          wake_r;
          wake_w;
          conns = [];
          accepted = 0;
          refused = 0;
        }
      in
      (* a write to a vanished client must yield EPIPE, not kill us *)
      let old_sigpipe =
        try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
        with Invalid_argument _ | Sys_error _ -> None
      in
      let old_sigint =
        try Some (Sys.signal Sys.sigint (Sys.Signal_handle (fun _ -> initiate_drain st)))
        with Invalid_argument _ | Sys_error _ -> None
      in
      Option.iter (fun f -> f actual) ready;
      event_loop st;
      (try Unix.close st.listen_fd with Unix.Unix_error _ -> ());
      flush_until_drained st;
      (try Unix.close st.wake_r with Unix.Unix_error _ -> ());
      (try Unix.close st.wake_w with Unix.Unix_error _ -> ());
      (try Option.iter (Sys.set_signal Sys.sigpipe) old_sigpipe with _ -> ());
      (try Option.iter (Sys.set_signal Sys.sigint) old_sigint with _ -> ());
      cleanup_path ();
      Ok
        {
          served = Engine.served engine;
          errors = Engine.errors engine;
          connections = st.accepted;
          refused = st.refused;
          elapsed = Unix.gettimeofday () -. t0;
        })
