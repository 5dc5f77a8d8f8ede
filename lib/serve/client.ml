type error =
  | Connect_failed of { addr : string; attempts : int; detail : string }
  | Overloaded of string
  | Timed_out of string
  | Disconnected
  | Io_error of string
  | Bad_response of string
  | Server_error of { kind : string; stage : string; message : string; id : Json.t }
  | Circuit_open of { retry_after : float }

let error_kind = function
  | Connect_failed _ -> "connect_failed"
  | Overloaded _ -> "overloaded"
  | Timed_out _ -> "timeout"
  | Disconnected -> "disconnected"
  | Io_error _ -> "io_error"
  | Bad_response _ -> "bad_response"
  | Server_error { kind; _ } -> kind
  | Circuit_open _ -> "circuit_open"

let error_to_string = function
  | Connect_failed { addr; attempts; detail } ->
    Printf.sprintf "connect to %s failed after %d attempt%s: %s" addr attempts
      (if attempts = 1 then "" else "s")
      detail
  | Overloaded msg -> "server overloaded: " ^ msg
  | Timed_out msg -> "server idled the connection out: " ^ msg
  | Disconnected -> "connection closed by peer"
  | Io_error msg -> "i/o error: " ^ msg
  | Bad_response line -> "unparseable response line: " ^ line
  | Server_error { kind; stage; message; _ } ->
    Printf.sprintf "server error[%s] %s: %s" kind stage message
  | Circuit_open { retry_after } ->
    Printf.sprintf "circuit breaker open; retry in %.2fs" retry_after

let stage = "serve.client"

(* ---------------------------------------------------------------- breaker *)

(* Client-side circuit breaker. After [threshold] consecutive
   overload-shaped failures ([Overloaded]/[Timed_out] — the server is
   alive but shedding), the breaker opens: calls fail locally with
   [Circuit_open] for a jittered [cooldown], taking the client out of the
   retry stampede entirely. The first call after the cooldown is the
   half-open probe; its success closes the breaker, its failure reopens
   it for another cooldown. Any other outcome (success, or a typed
   server error — the server answered, it is not drowning) resets the
   failure run. *)
module Breaker = struct
  type bstate = Closed | Open of float (* reopen time *) | Half_open

  type t = {
    lock : Mutex.t;
    threshold : int;
    cooldown : float;
    jitter : float;
    rng : Random.State.t;
    mutable state : bstate;
    mutable failures : int;
    mutable trips : int;
  }

  let create ?(threshold = 5) ?(cooldown = 1.0) ?(jitter = 0.2) ?(seed = 0x0b9) () =
    {
      lock = Mutex.create ();
      threshold = max 1 threshold;
      cooldown = Float.max 1e-4 cooldown;
      jitter = Float.max 0.0 (Float.min 1.0 jitter);
      rng = Random.State.make [| seed |];
      state = Closed;
      failures = 0;
      trips = 0;
    }

  let locked b f =
    Mutex.lock b.lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock b.lock) f

  (* jittered so a fleet of breakers tripped by the same brownout does
     not reopen (and re-stampede) in lockstep *)
  let reopen_at b =
    let u = Random.State.float b.rng 2.0 -. 1.0 in
    Unix.gettimeofday () +. (b.cooldown *. (1.0 +. (b.jitter *. u)))

  let admit b =
    locked b (fun () ->
        match b.state with
        | Closed -> Ok ()
        | Half_open ->
          (* one probe at a time; everyone else keeps failing fast *)
          Error (Circuit_open { retry_after = b.cooldown })
        | Open until ->
          let now = Unix.gettimeofday () in
          if now >= until then begin
            b.state <- Half_open;
            Robust.Counters.incr ~stage "breaker_probe";
            Ok ()
          end
          else Error (Circuit_open { retry_after = until -. now }))

  let counts_as_failure = function
    | Overloaded _ | Timed_out _ -> true
    (* an admission-control shed reaches the caller as a Server_error but
       is just as overload-shaped as a connection refusal *)
    | Server_error { kind = "overloaded" | "timeout"; _ } -> true
    | Connect_failed _ | Disconnected | Io_error _ | Bad_response _
    | Server_error _ | Circuit_open _ -> false

  let trip b =
    b.state <- Open (reopen_at b);
    b.failures <- 0;
    b.trips <- b.trips + 1;
    Robust.Counters.incr ~stage "breaker_trip"

  let record b (result : ('a, error) result) =
    locked b (fun () ->
        match result with
        | Error e when counts_as_failure e -> (
          match b.state with
          | Half_open | Open _ -> trip b (* failed probe: back to open *)
          | Closed ->
            b.failures <- b.failures + 1;
            if b.failures >= b.threshold then trip b)
        | Error (Circuit_open _) -> () (* never reached the server *)
        | Ok _ | Error _ ->
          b.failures <- 0;
          b.state <- Closed)

  let state b =
    locked b (fun () ->
        match b.state with
        | Closed -> "closed"
        | Half_open -> "half_open"
        | Open _ -> "open")

  let trips b = locked b (fun () -> b.trips)
end

type frames = Json_lines | Binary

type t = {
  fd : Unix.file_descr;
  ic : in_channel;
  oc : out_channel;
  frames : frames;
  mutable next_id : int;
  (* pipelined responses that arrived while awaiting a different id,
     keyed by the emitted form of their id *)
  mutable stash : (string * Json.t) list;
  mutable alive : bool;
}

(* --------------------------------------------------------------- connect *)

let ( let* ) = Result.bind

let connect_once ?(frames = Json_lines) ?recv_timeout sa =
  let domain = Unix.domain_of_sockaddr sa in
  let fd = Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 in
  try
    Unix.connect fd sa;
    (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
    (match recv_timeout with
    | Some s when s > 0.0 -> (
      try Unix.setsockopt_float fd Unix.SO_RCVTIMEO s with Unix.Unix_error _ -> ())
    | _ -> ());
    Ok
      {
        fd;
        ic = Unix.in_channel_of_descr fd;
        oc = Unix.out_channel_of_descr fd;
        frames;
        next_id = 0;
        stash = [];
        alive = true;
      }
  with Unix.Unix_error (e, _, _) ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Error (Unix.error_message e)

(* jitter is opt-in: the default ladder stays deterministic so test runs
   and incident reproductions see identical timing; [jitter = j] spreads
   each sleep uniformly over [d*(1-j), d*(1+j)] to decorrelate clients
   retrying in lockstep after a refusal storm *)
let jitter_rng = ref (lazy (Random.State.make_self_init ()))

(* reproducible jitter for benches: same seed, same sleep schedule *)
let seed_jitter s = jitter_rng := lazy (Random.State.make [| s |])

let backoff_sleep ?(jitter = 0.0) ~backoff attempt =
  let d = backoff *. Float.pow 2.0 (float_of_int attempt) in
  let d =
    if jitter > 0.0 then begin
      let j = Float.min jitter 1.0 in
      let u = Random.State.float (Lazy.force !jitter_rng) 2.0 -. 1.0 in
      Float.max 0.0 (d *. (1.0 +. (j *. u)))
    end
    else d
  in
  if d > 0.0 then Unix.sleepf d

let connect ?(retries = 0) ?(backoff = 0.05) ?(jitter = 0.0) ?frames ?recv_timeout
    addr =
  match Transport.sockaddr addr with
  | Error e ->
    Error (Connect_failed { addr = Transport.addr_to_string addr; attempts = 0; detail = e })
  | Ok sa ->
    let rec go attempt last_err =
      if attempt > retries then
        Error
          (Connect_failed
             {
               addr = Transport.addr_to_string addr;
               attempts = attempt;
               detail = last_err;
             })
      else
        match connect_once ?frames ?recv_timeout sa with
        | Ok t ->
          Robust.Counters.incr ~stage "connect";
          Ok t
        | Error detail ->
          Robust.Counters.incr ~stage "connect_failed";
          if attempt < retries then begin
            Robust.Counters.incr ~stage "reconnect";
            backoff_sleep ~jitter ~backoff attempt
          end;
          go (attempt + 1) detail
    in
    go 0 "unreachable"

let close t =
  if t.alive then begin
    t.alive <- false;
    (try flush t.oc with Sys_error _ -> ());
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

(* ------------------------------------------------------------------ send *)

let flush t =
  if not t.alive then Error Disconnected
  else
    try
      Stdlib.flush t.oc;
      Ok ()
    with Sys_error msg -> Error (Io_error msg)

let write_frame t payload =
  match t.frames with
  | Json_lines ->
    output_string t.oc payload;
    output_char t.oc '\n'
  | Binary -> output_string t.oc (Frame.encode payload)

let send ?(flush = true) t body =
  if not t.alive then Error Disconnected
  else
    match body with
    | Json.Obj members ->
      let id, members =
        match List.assoc_opt "id" members with
        | Some id -> (id, members)
        | None ->
          t.next_id <- t.next_id + 1;
          let id = Json.Num (float_of_int t.next_id) in
          (id, ("id", id) :: members)
      in
      let members =
        if List.mem_assoc "v" members then members
        else ("v", Json.Num (float_of_int Protocol.version)) :: members
      in
      (try
         write_frame t (Json.to_string (Json.Obj members));
         if flush then Stdlib.flush t.oc;
         Ok id
       with Sys_error msg -> Error (Io_error msg))
    | _ -> Error (Io_error "request body must be a JSON object")

let send_line ?(flush = true) t line =
  if not t.alive then Error Disconnected
  else
    try
      write_frame t line;
      if flush then Stdlib.flush t.oc;
      Ok ()
    with Sys_error msg -> Error (Io_error msg)

(* ------------------------------------------------------------------ recv *)

(* connection-fatal error responses surface as their typed variant no
   matter what the caller was waiting for. An admission-control shed
   (stage "serve.admission") also answers [overloaded] but the server
   keeps the connection open — that one is a per-request error, not a
   connection verdict, so it flows to the caller as a normal response. *)
let fatal_of_response json =
  match Json.member "error" json with
  | Some err -> (
    let message = Option.value ~default:"" (Json.mem_str "message" err) in
    match (Json.mem_str "kind" err, Json.mem_str "stage" err) with
    | Some "overloaded", Some "serve.admission" -> None
    | Some "overloaded", _ -> Some (Overloaded message)
    | Some "timeout", _ -> Some (Timed_out message)
    | _ -> None)
  | None -> None

(* max payload a client will buffer from a response frame; a declared
   length past this means a desynced or hostile stream *)
let max_recv_frame = 1 lsl 26

let recv_binary_payload t =
  let hdr = Bytes.create Frame.header_bytes in
  really_input t.ic hdr 0 Frame.header_bytes;
  let hdr = Bytes.to_string hdr in
  match Frame.decode_header hdr 0 with
  | Ok len ->
    if len > max_recv_frame then
      Error (Io_error (Printf.sprintf "response frame declares %d bytes" len))
    else begin
      let payload = Bytes.create len in
      really_input t.ic payload 0 len;
      Ok (Bytes.to_string payload)
    end
  | Error _ -> (
    (* not a frame: the server spoke a JSON line at us — an overload
       refusal precedes framing negotiation — surface that line *)
    match String.index_opt hdr '\n' with
    | Some i -> Ok (String.sub hdr 0 i)
    | None -> Ok (hdr ^ input_line t.ic))

let recv_raw t =
  if not t.alive then Error Disconnected
  else
    match
      match t.frames with
      | Json_lines -> Ok (input_line t.ic)
      | Binary -> recv_binary_payload t
    with
    | result -> result
    | exception End_of_file ->
      close t;
      Error Disconnected
    | exception Sys_error msg ->
      close t;
      Error (Io_error msg)
    | exception Sys_blocked_io ->
      close t;
      Error (Io_error "receive timed out")

let recv t =
  let* payload = recv_raw t in
  match Json.parse payload with
  | Error _ -> Error (Bad_response payload)
  | Ok json -> (
    match fatal_of_response json with
    | Some fatal ->
      close t;
      Error fatal
    | None -> Ok json)

let id_key id = Json.to_string id

let recv_id t id =
  let key = id_key id in
  match List.assoc_opt key t.stash with
  | Some json ->
    t.stash <- List.remove_assoc key t.stash;
    Ok json
  | None ->
    let rec await () =
      let* json = recv t in
      let got = Option.value ~default:Json.Null (Json.member "id" json) in
      if id_key got = key then Ok json
      else begin
        t.stash <- (id_key got, json) :: t.stash;
        await ()
      end
    in
    await ()

(* a send that hit EPIPE may have crossed a refusal in flight: the server
   answered (e.g. [overloaded]) and closed before our bytes landed. Read
   the response it left so the caller gets the typed error, not EPIPE. *)
let rescue_fatal t =
  match input_line t.ic with
  | line -> (
    match Json.parse line with
    | Ok json -> fatal_of_response json
    | Error _ -> None)
  | exception (End_of_file | Sys_error _ | Sys_blocked_io) -> None

let request t body =
  match send t body with
  | Error ((Io_error _ | Disconnected) as e) ->
    let rescued = rescue_fatal t in
    close t;
    Error (Option.value ~default:e rescued)
  | Error e -> Error e
  | Ok id -> (
    let* json = recv_id t id in
    match Json.mem_bool "ok" json with
    | Some true -> Ok json
    | _ -> (
      match Json.member "error" json with
      | Some err ->
        Error
          (Server_error
             {
               kind = Option.value ~default:"unknown" (Json.mem_str "kind" err);
               stage = Option.value ~default:"" (Json.mem_str "stage" err);
               message = Option.value ~default:"" (Json.mem_str "message" err);
               id;
             })
      | None -> Error (Bad_response (Json.to_string json))))

let rpc ?(retries = 3) ?(backoff = 0.05) ?(jitter = 0.0) ?frames ?breaker addr body
    =
  let admit () =
    match breaker with
    | None -> Ok ()
    | Some b -> (
      match Breaker.admit b with
      | Ok () -> Ok ()
      | Error e ->
        Robust.Counters.incr ~stage "breaker_reject";
        Error e)
  in
  let record r = Option.iter (fun b -> Breaker.record b r) breaker in
  let rec go attempt =
    let attempt_left = retries - attempt in
    match admit () with
    | Error e -> Error e
    | Ok () -> (
      let result =
        match connect ?frames addr with
        | Error e -> Error e
        | Ok t ->
          let r = request t body in
          close t;
          r
      in
      record result;
      match result with
      | Error (Connect_failed _ | Overloaded _) when attempt_left > 0 ->
        Robust.Counters.incr ~stage "retry";
        backoff_sleep ~jitter ~backoff attempt;
        go (attempt + 1)
      | other -> other)
  in
  go 0
