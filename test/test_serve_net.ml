(* Socket transport: the network front-end must be observationally
   equivalent to the stdio server (differential test over the same
   request stream), survive concurrent pipelined clients and mid-stream
   disconnects with an exact id bijection, and enforce the connection
   lifecycle guards — overload refusal, idle timeout, frame cap — as
   typed JSON errors followed by a graceful drain. *)

module J = Serve.Json
module T = Serve.Transport
module C = Serve.Client

let () = Robust.Fault.configure None

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let rec json_eq a b =
  match (a, b) with
  | J.Num x, J.Num y -> Int64.bits_of_float x = Int64.bits_of_float y
  | J.Arr xs, J.Arr ys -> List.length xs = List.length ys && List.for_all2 json_eq xs ys
  | J.Obj xs, J.Obj ys ->
    List.length xs = List.length ys
    && List.for_all2 (fun (k, v) (k', v') -> k = k' && json_eq v v') xs ys
  | _ -> a = b

let net_config ?(workers = 2) ?cache_path ?(max_connections = 64) ?(idle_timeout = 300.0)
    ?(max_line_bytes = Serve.Protocol.max_line_bytes)
    ?(max_queue_depth = T.default_config.T.max_queue_depth) () =
  {
    T.server = { Serve.Server.default_config with Serve.Server.workers; cache_path };
    max_connections;
    idle_timeout;
    max_line_bytes;
    max_write_buffer = T.default_config.T.max_write_buffer;
    max_queue_depth;
  }

(* ------------------------------------------------------------- harness *)

let temp_unix_addr () =
  let path = Filename.temp_file "rqnet" ".sock" in
  Sys.remove path;
  T.Unix_path path

let shutdown_body = J.Obj [ ("op", J.Str "shutdown") ]

(* run [Transport.serve] in a thread, hand [f] the actual bound address
   (kernel-assigned port for tcp:...:0), and require f to have triggered
   the drain (shutdown request) before returning. A server that returns
   without becoming ready fails the test with its own error. *)
let with_server ?(config = net_config ()) listen f =
  let ready = Atomic.make false and finished = Atomic.make false in
  let actual = ref listen in
  let result = ref (Error "server did not return") in
  let th =
    Thread.create
      (fun () ->
        Fun.protect
          ~finally:(fun () -> Atomic.set finished true)
          (fun () ->
            result :=
              T.serve ~config
                ~ready:(fun a ->
                  actual := a;
                  Atomic.set ready true)
                listen))
      ()
  in
  let rec wait n =
    if Atomic.get finished && not (Atomic.get ready) then begin
      Thread.join th;
      match !result with
      | Error e -> Alcotest.failf "server failed to start: %s" e
      | Ok _ -> Alcotest.fail "server returned before it was ready"
    end
    else if not (Atomic.get ready) then
      if n > 2000 then Alcotest.fail "server did not become ready"
      else begin
        Thread.delay 0.005;
        wait (n + 1)
      end
  in
  wait 0;
  let fin =
    try f !actual
    with e ->
      (* last-ditch drain so the join below cannot hang the suite *)
      ignore (C.rpc ~retries:0 !actual shutdown_body);
      raise e
  in
  Thread.join th;
  match !result with
  | Error e -> Alcotest.failf "server failed: %s" e
  | Ok summary -> (summary, fin)

let ok_or_fail what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what (C.error_to_string e)

(* ---------------------------------------------------------------- addr *)

let test_addr_parsing () =
  (match T.parse_addr "tcp:127.0.0.1:8080" with
  | Ok (T.Tcp ("127.0.0.1", 8080)) -> ()
  | _ -> Alcotest.fail "tcp:127.0.0.1:8080");
  (match T.parse_addr "tcp:localhost:0" with
  | Ok (T.Tcp ("localhost", 0)) -> ()
  | _ -> Alcotest.fail "tcp:localhost:0");
  (match T.parse_addr "unix:/tmp/x.sock" with
  | Ok (T.Unix_path "/tmp/x.sock") -> ()
  | _ -> Alcotest.fail "unix:/tmp/x.sock");
  List.iter
    (fun s ->
      match T.parse_addr s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted bad address %S" s)
    [ ""; "bogus"; "tcp:"; "tcp:localhost"; "tcp:host:70000"; "tcp::123"; "unix:"; "http:x:1" ];
  (* to_string round trips through parse *)
  List.iter
    (fun a ->
      match T.parse_addr (T.addr_to_string a) with
      | Ok a' when a = a' -> ()
      | _ -> Alcotest.failf "addr %s did not round trip" (T.addr_to_string a))
    [ T.Tcp ("127.0.0.1", 9999); T.Unix_path "/tmp/y.sock" ]

(* ---------------------------------------------------------- happy path *)

let socket_session addr =
  let c = ok_or_fail "connect" (C.connect addr) in
  let stats = ok_or_fail "stats" (C.request c (J.Obj [ ("op", J.Str "stats") ])) in
  Alcotest.(check (option bool)) "stats ok" (Some true) (J.mem_bool "ok" stats);
  let pulses =
    ok_or_fail "pulses" (C.request c (J.Obj [ ("op", J.Str "pulses"); ("gate", J.Str "cnot") ]))
  in
  Alcotest.(check bool) "pulse payload" true (contains (J.to_string pulses) "\"tau\"");
  Alcotest.(check (option int)) "response carries v" (Some Serve.Protocol.version)
    (J.mem_int "v" pulses);
  let bye = ok_or_fail "shutdown" (C.request c shutdown_body) in
  Alcotest.(check (option bool)) "shutdown ok" (Some true) (J.mem_bool "ok" bye);
  C.close c

let check_happy_summary (summary : T.summary) =
  Alcotest.(check int) "served" 3 summary.T.served;
  Alcotest.(check int) "errors" 0 summary.T.errors;
  Alcotest.(check int) "connections" 1 summary.T.connections;
  Alcotest.(check int) "refused" 0 summary.T.refused

let test_unix_happy_path () =
  let summary, () = with_server (temp_unix_addr ()) socket_session in
  check_happy_summary summary

let test_tcp_happy_path () =
  (* port 0: the kernel picks; [ready] must report the real port *)
  let summary, () =
    with_server (T.Tcp ("127.0.0.1", 0)) (fun actual ->
        (match actual with
        | T.Tcp ("127.0.0.1", p) when p > 0 -> ()
        | a -> Alcotest.failf "ready reported %s" (T.addr_to_string a));
        socket_session actual)
  in
  check_happy_summary summary

(* --------------------------------------------------------- differential *)

(* identical request stream through the in-process stdio server and
   through a loopback socket: the response SETS must match keyed by "id"
   (completion order may differ). Only op=stats results are volatile
   (uptime, queue depth, live counters) — normalize them to null,
   recursively so batch items are covered too. *)

let rec normalize j =
  match j with
  | J.Obj ms ->
    let is_stats = List.assoc_opt "op" ms = Some (J.Str "stats") in
    J.Obj
      (List.map
         (fun (k, v) -> if is_stats && k = "result" then (k, J.Null) else (k, normalize v))
         ms)
  | J.Arr xs -> J.Arr (List.map normalize xs)
  | _ -> j

let differential_stream =
  [
    "{\"v\":1,\"id\":1,\"op\":\"stats\"}";
    "{\"v\":1,\"id\":2,\"op\":\"pulses\",\"gate\":\"cnot\"}";
    "{\"v\":1,\"id\":3,\"op\":\"pulses\",\"coords\":[0.5,0.3,0.1]}";
    "this is not json";
    "{\"v\":1,\"id\":4,\"op\":\"nope\"}";
    "{\"id\":5,\"op\":\"stats\"}";
    "{\"v\":1,\"id\":6,\"op\":\"batch\",\"requests\":[{\"op\":\"pulses\",\"gate\":\"cz\"},{\"op\":\"stats\"}]}";
    "{\"v\":1,\"id\":7,\"op\":\"compile\",\"bench\":\"qaoa_8\",\"mode\":\"eff\"}";
    "{\"v\":1,\"id\":8,\"op\":\"pulses\",\"gate\":\"bogus\"}";
  ]

let run_stdio_server lines =
  let req = Filename.temp_file "rqnet" ".in" in
  let resp = Filename.temp_file "rqnet" ".out" in
  let oc = open_out req in
  List.iter (fun l -> output_string oc (l ^ "\n")) lines;
  close_out oc;
  let ic = open_in req in
  let out = open_out resp in
  let summary =
    Serve.Server.run
      ~config:{ Serve.Server.default_config with Serve.Server.workers = 2 }
      ic out
  in
  close_in ic;
  close_out out;
  let acc = ref [] in
  let ic = open_in resp in
  (try
     while true do
       acc := input_line ic :: !acc
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove req;
  Sys.remove resp;
  match summary with
  | Error e -> Alcotest.failf "stdio server failed: %s" e
  | Ok _ -> List.rev !acc

let id_key j = J.to_string (Option.value ~default:J.Null (J.member "id" j))

let keyed lines =
  List.map
    (fun l ->
      match J.parse l with
      | Error e -> Alcotest.failf "response not JSON (%s): %s" e l
      | Ok j -> (id_key j, normalize j))
    lines

let test_differential () =
  let stdio = keyed (run_stdio_server differential_stream) in
  let socket_lines =
    let _, lines =
      with_server (temp_unix_addr ()) (fun addr ->
          let c = ok_or_fail "connect" (C.connect addr) in
          List.iter
            (fun l -> ok_or_fail "send_line" (C.send_line c l))
            differential_stream;
          let got =
            List.map (fun _ -> ok_or_fail "recv" (C.recv c)) differential_stream
          in
          ignore (ok_or_fail "shutdown" (C.request c shutdown_body));
          C.close c;
          List.map J.to_string got)
    in
    lines
  in
  let socket = keyed socket_lines in
  Alcotest.(check int) "same cardinality" (List.length stdio) (List.length socket);
  List.iter
    (fun (k, sj) ->
      match List.assoc_opt k socket with
      | None -> Alcotest.failf "socket run missing response id %s" k
      | Some nj ->
        if not (json_eq sj nj) then
          Alcotest.failf "responses for id %s differ\nstdio:  %s\nsocket: %s" k
            (J.to_string sj) (J.to_string nj))
    stdio

(* --------------------------------------------------------------- stress *)

let stress_clients = 8
let stress_requests = 64

let stress_worker addr tid =
  let c = ok_or_fail "connect" (C.connect addr) in
  (* pipeline everything first ... *)
  let ids =
    List.init stress_requests (fun j ->
        let id = J.Str (Printf.sprintf "c%d-%d" tid j) in
        let body =
          if j mod 8 = 0 then
            J.Obj [ ("id", id); ("op", J.Str "pulses"); ("gate", J.Str "cnot") ]
          else J.Obj [ ("id", id); ("op", J.Str "stats") ]
        in
        ok_or_fail "send" (C.send c body))
  in
  (* ... then collect in REVERSE order, forcing the stash to demux
     out-of-order arrivals; recv_id consuming each id exactly once is the
     bijection check *)
  List.iter
    (fun id ->
      let r = ok_or_fail "recv_id" (C.recv_id c id) in
      Alcotest.(check (option bool))
        (Printf.sprintf "ok for %s" (J.to_string id))
        (Some true) (J.mem_bool "ok" r))
    (List.rev ids);
  (* wire-level duplicate probe: the very next line must be the final
     request's response — any stray duplicate would arrive first *)
  let fin = J.Str (Printf.sprintf "c%d-fin" tid) in
  ignore (ok_or_fail "send fin" (C.send c (J.Obj [ ("id", fin); ("op", J.Str "stats") ])));
  let last = ok_or_fail "recv fin" (C.recv c) in
  Alcotest.(check string) "no duplicates on the wire" (J.to_string fin)
    (J.to_string (Option.value ~default:J.Null (J.member "id" last)));
  C.close c

let test_stress () =
  let summary, () =
    with_server (temp_unix_addr ()) (fun addr ->
        (* a rude client: queue work, vanish without reading — the engine
           keeps running and everyone else still gets exact answers *)
        let rude = ok_or_fail "rude connect" (C.connect addr) in
        for _ = 1 to 8 do
          ignore
            (ok_or_fail "rude send"
               (C.send rude (J.Obj [ ("op", J.Str "pulses"); ("gate", J.Str "cz") ])))
        done;
        C.close rude;
        let threads =
          List.init stress_clients (fun tid -> Thread.create (stress_worker addr) tid)
        in
        List.iter Thread.join threads;
        ignore (ok_or_fail "shutdown" (C.rpc addr shutdown_body)))
  in
  (* 8 clients x (64 + 1 final probe) + 8 rude + 1 shutdown, all served *)
  Alcotest.(check int) "served"
    ((stress_clients * (stress_requests + 1)) + 8 + 1)
    summary.T.served;
  Alcotest.(check int) "errors" 0 summary.T.errors;
  Alcotest.(check int) "connections" (stress_clients + 2) summary.T.connections;
  Alcotest.(check int) "refused" 0 summary.T.refused

(* --------------------------------------------------------------- binary *)

let test_binary_happy_path () =
  let summary, () =
    with_server (temp_unix_addr ()) (fun addr ->
        let c = ok_or_fail "connect" (C.connect ~frames:C.Binary addr) in
        let stats = ok_or_fail "stats" (C.request c (J.Obj [ ("op", J.Str "stats") ])) in
        Alcotest.(check (option bool)) "stats ok" (Some true) (J.mem_bool "ok" stats);
        let pulses =
          ok_or_fail "pulses"
            (C.request c (J.Obj [ ("op", J.Str "pulses"); ("gate", J.Str "cnot") ]))
        in
        Alcotest.(check bool) "pulse payload" true
          (contains (J.to_string pulses) "\"tau\"");
        ignore (ok_or_fail "shutdown" (C.request c shutdown_body));
        C.close c)
  in
  check_happy_summary summary

let test_binary_oversize_frame () =
  let config = net_config ~max_line_bytes:1024 () in
  let summary, () =
    with_server ~config (temp_unix_addr ()) (fun addr ->
        let c = ok_or_fail "connect" (C.connect ~frames:C.Binary addr) in
        (* a frame whose declared length is over the cap: one typed
           rejection, the payload is skipped by counting, and the
           connection keeps serving *)
        ok_or_fail "send oversize" (C.send_line c (String.make 5000 'x'));
        (match C.recv c with
        | Ok j ->
          Alcotest.(check (option bool)) "rejected" (Some false) (J.mem_bool "ok" j);
          let s = J.to_string j in
          Alcotest.(check bool) "bad_request" true (contains s "bad_request");
          Alcotest.(check bool) "names the limit" true (contains s "1024-byte")
        | Error e -> Alcotest.failf "recv oversize reply: %s" (C.error_to_string e));
        let again =
          ok_or_fail "still serving" (C.request c (J.Obj [ ("op", J.Str "stats") ]))
        in
        Alcotest.(check (option bool)) "connection survives" (Some true)
          (J.mem_bool "ok" again);
        ignore (ok_or_fail "shutdown" (C.request c shutdown_body));
        C.close c)
  in
  Alcotest.(check int) "the rejection is counted" 1 summary.T.errors

(* raw byte-level driver: the client library only emits well-formed
   frames and always reads its responses, while desync is precisely a
   malformed frame and the write-queue tests need a peer that does not
   read *)
let raw_unix_connect ?rcvbuf = function
  | T.Unix_path p ->
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Option.iter (Unix.setsockopt_int fd Unix.SO_RCVBUF) rcvbuf;
    Unix.connect fd (Unix.ADDR_UNIX p);
    fd
  | a -> Alcotest.failf "raw connect wants a unix path, got %s" (T.addr_to_string a)

let write_all fd s =
  let n = String.length s in
  let rec go off = if off < n then go (off + Unix.write_substring fd s off (n - off)) in
  go 0

let read_to_eof fd =
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      go ()
  in
  go ();
  Buffer.contents buf

(* split a byte stream of binary frames into payloads *)
let rec decode_frames s off acc =
  if off >= String.length s then List.rev acc
  else
    match Serve.Frame.decode_header s off with
    | Error e -> Alcotest.failf "response stream desynced at %d: %s" off e
    | Ok n ->
      let payload = String.sub s (off + Serve.Frame.header_bytes) n in
      decode_frames s (off + Serve.Frame.header_bytes + n) (payload :: acc)

let test_binary_desync () =
  let summary, () =
    with_server (temp_unix_addr ()) (fun addr ->
        let fd = raw_unix_connect addr in
        (* one good frame negotiates binary mode; the bad-magic bytes
           after it are unrecoverable — the server must answer a typed
           desync error and stop reading this connection *)
        write_all fd (Serve.Frame.encode "{\"v\":1,\"id\":1,\"op\":\"stats\"}");
        write_all fd "XXXXXXXX";
        (* the engine worker answers the stats while the event loop
           answers the desync, so the two frames may arrive in either
           order: match them by id *)
        let frames =
          List.map
            (fun p ->
              match J.parse p with
              | Ok j -> j
              | Error e -> Alcotest.failf "response frame is not JSON (%s): %s" e p)
            (decode_frames (read_to_eof fd) 0 [])
        in
        Alcotest.(check int) "two response frames" 2 (List.length frames);
        let frame_with_id id =
          match List.filter (fun j -> J.member "id" j = Some id) frames with
          | [ j ] -> j
          | _ -> Alcotest.failf "expected one frame with id %s" (J.to_string id)
        in
        let good = frame_with_id (J.Num 1.0) and bad = frame_with_id J.Null in
        Alcotest.(check (option bool)) "good frame answered" (Some true) (J.mem_bool "ok" good);
        Alcotest.(check (option bool)) "desync frame fails" (Some false) (J.mem_bool "ok" bad);
        let error = Option.value ~default:J.Null (J.member "error" bad) in
        Alcotest.(check (option string)) "desync is typed" (Some "bad_request")
          (J.mem_str "kind" error);
        Alcotest.(check bool) "desync is named" true
          (contains (Option.value ~default:"" (J.mem_str "message" error)) "desync");
        Unix.close fd;
        ignore (ok_or_fail "shutdown" (C.rpc addr shutdown_body)))
  in
  Alcotest.(check int) "the desync is counted" 1 summary.T.errors

let test_mixed_frame_clients () =
  (* one JSON-lines client and one binary client interleaved on the same
     server: negotiation is per connection, so neither leaks into the
     other's framing *)
  let summary, () =
    with_server (temp_unix_addr ()) (fun addr ->
        let cj = ok_or_fail "json connect" (C.connect addr) in
        let cb = ok_or_fail "binary connect" (C.connect ~frames:C.Binary addr) in
        for _ = 1 to 4 do
          let rj = ok_or_fail "json stats" (C.request cj (J.Obj [ ("op", J.Str "stats") ])) in
          Alcotest.(check (option bool)) "json ok" (Some true) (J.mem_bool "ok" rj);
          let rb =
            ok_or_fail "binary pulses"
              (C.request cb (J.Obj [ ("op", J.Str "pulses"); ("gate", J.Str "cz") ]))
          in
          Alcotest.(check bool) "binary payload" true
            (contains (J.to_string rb) "\"tau\"")
        done;
        ignore (ok_or_fail "shutdown" (C.request cj shutdown_body));
        C.close cj;
        C.close cb)
  in
  Alcotest.(check int) "both clients served" 9 summary.T.served;
  Alcotest.(check int) "no errors" 0 summary.T.errors;
  Alcotest.(check int) "two connections" 2 summary.T.connections

(* ------------------------------------------------------------ lifecycle *)

let test_overload_refusal () =
  let config = net_config ~max_connections:1 () in
  let summary, () =
    with_server ~config (temp_unix_addr ()) (fun addr ->
        let c1 = ok_or_fail "c1 connect" (C.connect addr) in
        ignore (ok_or_fail "c1 stats" (C.request c1 (J.Obj [ ("op", J.Str "stats") ])));
        (* the slot is held: a second client is answered [overloaded]
           naming the threshold, then closed *)
        let c2 = ok_or_fail "c2 connect" (C.connect addr) in
        (match C.request c2 (J.Obj [ ("op", J.Str "stats") ]) with
        | Error (C.Overloaded msg) ->
          Alcotest.(check bool) "names the threshold" true (contains msg "1")
        | Ok _ -> Alcotest.fail "second client admitted past max_connections"
        | Error e -> Alcotest.failf "expected overloaded, got %s" (C.error_to_string e));
        C.close c2;
        C.close c1;
        (* once the slot frees, the retry ladder gets through *)
        ignore (ok_or_fail "rpc after drain" (C.rpc ~retries:5 addr shutdown_body)))
  in
  Alcotest.(check bool) "refusals counted" true (summary.T.refused >= 1);
  Alcotest.(check int) "no response errors" 0 summary.T.errors

let test_idle_timeout () =
  let config = net_config ~idle_timeout:0.3 () in
  let summary, () =
    with_server ~config (temp_unix_addr ()) (fun addr ->
        let c = ok_or_fail "connect" (C.connect addr) in
        ignore (ok_or_fail "stats" (C.request c (J.Obj [ ("op", J.Str "stats") ])));
        (* go silent: the server answers [timeout] and closes *)
        (match C.recv c with
        | Error (C.Timed_out msg) ->
          Alcotest.(check bool) "timeout names the idle window" true (contains msg "idle")
        | Error C.Disconnected -> Alcotest.fail "closed without the typed timeout line"
        | Error e -> Alcotest.failf "expected timeout, got %s" (C.error_to_string e)
        | Ok j -> Alcotest.failf "unexpected response %s" (J.to_string j));
        ignore (ok_or_fail "shutdown" (C.rpc addr shutdown_body)))
  in
  Alcotest.(check int) "no response errors" 0 summary.T.errors

let test_frame_cap () =
  let config = net_config ~max_line_bytes:1024 () in
  let summary, () =
    with_server ~config (temp_unix_addr ()) (fun addr ->
        let c = ok_or_fail "connect" (C.connect addr) in
        (* one oversized frame: rejected with the limit named, id null,
           and the connection survives for the next request *)
        ok_or_fail "send oversize" (C.send_line c (String.make 5000 'x'));
        (match C.recv c with
        | Ok j ->
          Alcotest.(check (option bool)) "rejected" (Some false) (J.mem_bool "ok" j);
          let s = J.to_string j in
          Alcotest.(check bool) "bad_request" true (contains s "bad_request");
          Alcotest.(check bool) "names the limit" true (contains s "1024-byte");
          Alcotest.(check bool) "id is null" true
            (J.member "id" j = Some J.Null)
        | Error e -> Alcotest.failf "recv oversize reply: %s" (C.error_to_string e));
        let again = ok_or_fail "still serving" (C.request c (J.Obj [ ("op", J.Str "stats") ])) in
        Alcotest.(check (option bool)) "connection survives" (Some true)
          (J.mem_bool "ok" again);
        ignore (ok_or_fail "shutdown" (C.request c shutdown_body));
        C.close c)
  in
  Alcotest.(check int) "the rejection is counted" 1 summary.T.errors

let stats_line = "{\"v\":1,\"op\":\"stats\"}\n"

(* pipeline [n] stats requests on a raw connection, then half-close it;
   the server may hang up mid-burst, which ends the writing early *)
let pipeline_stats ?rcvbuf addr n =
  let fd = raw_unix_connect ?rcvbuf addr in
  (try
     for _ = 1 to n do
       write_all fd stats_line
     done
   with Unix.Unix_error _ -> ());
  (try Unix.shutdown fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
  fd

let count_lines s = List.length (List.filter (( <> ) "") (String.split_on_char '\n' s))

(* a peer that pipelines requests and never reads its responses must
   forfeit its connection once its write queue passes [max_write_buffer],
   without growing the server or starving anyone else. The cap sits
   above the transport's 16 KiB response batch, so batching alone cannot
   reach it; 3000 stats responses (~1.5 MB) are far more than the
   kernel's socket buffers plus the cap *)
let test_write_overflow () =
  let config = { (net_config ()) with T.max_write_buffer = 65536 } in
  let requests = 3000 in
  let overflows () = Robust.Counters.get ~stage:"serve.net" "write_overflow" in
  let overflow0 = overflows () in
  let (_ : T.summary), answered =
    with_server ~config (temp_unix_addr ()) (fun addr ->
        let fd = pipeline_stats ~rcvbuf:4096 addr requests in
        (* stay a non-reader until the server gives up on us (10 s at
           most), or reading here would drain the queue *)
        let rec await_overflow n =
          if n > 0 && overflows () = overflow0 then begin
            Thread.delay 0.01;
            await_overflow (n - 1)
          end
        in
        await_overflow 1000;
        let got = try read_to_eof fd with Unix.Unix_error (Unix.ECONNRESET, _, _) -> "" in
        Unix.close fd;
        let again = ok_or_fail "fresh stats" (C.rpc addr (J.Obj [ ("op", J.Str "stats") ])) in
        Alcotest.(check (option bool)) "a fresh client is served" (Some true)
          (J.mem_bool "ok" again);
        ignore (ok_or_fail "shutdown" (C.rpc addr shutdown_body));
        count_lines got)
  in
  Alcotest.(check bool) "closed before answering everything" true (answered < requests);
  Alcotest.(check bool) "overflow counted" true (overflows () - overflow0 >= 1)

(* the other side of the bound: under the default cap, a peer that reads
   only after every response was produced still gets all of them. More
   bytes than the socket buffers hold queue behind a stalled write, and
   nothing but the drain of that write can send them on *)
let test_slow_reader () =
  let requests = 3000 in
  let (_ : T.summary), answered =
    with_server (temp_unix_addr ()) (fun addr ->
        let fd = pipeline_stats addr requests in
        Thread.delay 1.0;
        (* a stalled queue fails the read after 10 s instead of hanging *)
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
        let got =
          try read_to_eof fd
          with Unix.Unix_error (Unix.EAGAIN, _, _) -> Alcotest.fail "response stream stalled"
        in
        Unix.close fd;
        ignore (ok_or_fail "shutdown" (C.rpc addr shutdown_body));
        count_lines got)
  in
  Alcotest.(check int) "every response delivered" requests answered

let test_shutdown_drains_queued () =
  (* queue several slow-ish jobs then shut down from the same pipeline:
     everything already accepted must still answer *)
  let summary, () =
    with_server (temp_unix_addr ()) (fun addr ->
        let c = ok_or_fail "connect" (C.connect addr) in
        let ids =
          List.map
            (fun gate ->
              ok_or_fail "send"
                (C.send c (J.Obj [ ("op", J.Str "pulses"); ("gate", J.Str gate) ])))
            [ "cnot"; "iswap"; "swap" ]
        in
        let bye = ok_or_fail "send shutdown" (C.send c shutdown_body) in
        List.iter
          (fun id ->
            let r = ok_or_fail "drain recv" (C.recv_id c id) in
            Alcotest.(check (option bool)) "queued job answered" (Some true)
              (J.mem_bool "ok" r))
          (ids @ [ bye ]);
        C.close c)
  in
  Alcotest.(check int) "all four served" 4 summary.T.served;
  Alcotest.(check int) "errors" 0 summary.T.errors

(* the merged serve opens the cache before binding: a bind failure must
   release it again without spawning workers or installing it as the
   process-global pulse cache, and must leave the blocking file alone *)
let test_bind_failure () =
  let path = Filename.temp_file "rqnet" ".notsock" in
  let cache_path = Filename.temp_file "rqnet" ".rqcache" in
  Sys.remove cache_path;
  (match T.serve ~config:(net_config ~cache_path ()) (T.Unix_path path) with
  | Ok _ -> Alcotest.fail "served on a regular file"
  | Error e -> Alcotest.(check bool) "names the cause" true (contains e "is not a socket"));
  Alcotest.(check bool) "file left in place" true (Sys.file_exists path);
  Alcotest.(check bool) "no pulse cache installed" true
    (Microarch.Pulse_cache.installed () = None);
  Sys.remove path;
  if Sys.file_exists cache_path then Sys.remove cache_path

(* ------------------------------------------------------- coalescing *)

(* classes the pulse solver computed: root searches plus class-memo hits,
   which stand in for them *)
let class_computations () =
  Robust.Counters.get ~stage:"genashn" "solve_run"
  + Robust.Counters.get ~stage:"genashn" "memo_hit"

let storm_request = "{\"v\":1,\"id\":1,\"op\":\"pulses\",\"coords\":[0.6,0.5,0.4]}"
let plug_coords = List.init 16 (fun i -> (0.5, 0.3, 0.002 *. float_of_int (i + 1)))

(* poll [pred] every 5 ms for up to 10 s *)
let await what pred =
  let rec go n =
    if not (pred ()) then
      if n > 2000 then Alcotest.failf "timed out waiting for %s" what
      else begin
        Thread.delay 0.005;
        go (n + 1)
      end
  in
  go 0

(* K socket clients fire one identical cold request at once; the
   engine's single-flight admission must compute the class once and fan
   the result out. A plug client first queues distinct cold solves on
   the single worker, and a gate sink parks that worker on its first
   dequeue (the [serve]/[queue_wait] span) until all K storm requests
   are admitted, so every one of them is submitted while the flight is
   still queued, however the threads are scheduled. *)
let test_coalesce_storm () =
  let stormers = 8 in
  let computations0 = class_computations () in
  let hits0 = Robust.Counters.get ~stage:"serve" "coalesce_hit" in
  let hits () = Robust.Counters.get ~stage:"serve" "coalesce_hit" - hits0 in
  let parked = Atomic.make false and open_gate = Atomic.make false in
  let gate =
    {
      Obs.Sink.on_span =
        (fun ev ->
          if
            ev.Obs.Sink.stage = "serve" && ev.name = "queue_wait"
            && Atomic.compare_and_set parked false true
          then
            while not (Atomic.get open_gate) do
              Thread.delay 0.001
            done);
    }
  in
  let previous = Obs.Sink.installed () in
  Obs.Sink.install gate;
  let _summary, () =
    Fun.protect
      ~finally:(fun () ->
        Atomic.set open_gate true;
        match previous with Some s -> Obs.Sink.install s | None -> Obs.Sink.uninstall ())
      (fun () ->
        with_server ~config:(net_config ~workers:1 ()) (temp_unix_addr ()) (fun addr ->
            (* a failure must unpark the worker before the harness drains *)
            Fun.protect ~finally:(fun () -> Atomic.set open_gate true) @@ fun () ->
            let plug = ok_or_fail "plug connect" (C.connect addr) in
            List.iter
              (fun (x, y, z) ->
                let line =
                  Printf.sprintf "{\"v\":1,\"op\":\"pulses\",\"coords\":[%.17g,%.17g,%.17g]}"
                    x y z
                in
                ok_or_fail "plug send" (C.send_line ~flush:false plug line))
              plug_coords;
            ok_or_fail "plug flush" (C.flush plug);
            await "the worker to park" (fun () -> Atomic.get parked);
            let conns =
              Array.init stormers (fun _ -> ok_or_fail "storm connect" (C.connect addr))
            in
            let answers = Array.make stormers None in
            let release = Atomic.make false in
            let threads =
              List.init stormers (fun i ->
                  Thread.create
                    (fun () ->
                      while not (Atomic.get release) do
                        Thread.yield ()
                      done;
                      answers.(i) <-
                        (match C.send_line conns.(i) storm_request with
                        | Error _ as e -> Some e
                        | Ok () -> Some (C.recv conns.(i))))
                    ())
            in
            Atomic.set release true;
            await "the storm to be admitted" (fun () -> hits () >= stormers - 1);
            Atomic.set open_gate true;
            List.iter Thread.join threads;
            Array.iteri
              (fun i answer ->
                C.close conns.(i);
                match answer with
                | Some (Ok r) ->
                  Alcotest.(check (option bool)) "storm answered ok" (Some true)
                    (J.mem_bool "ok" r)
                | Some (Error e) -> Alcotest.failf "storm client: %s" (C.error_to_string e)
                | None -> Alcotest.fail "storm client did not finish")
              answers;
            List.iter (fun _ -> ignore (ok_or_fail "plug recv" (C.recv plug))) plug_coords;
            ignore (ok_or_fail "shutdown" (C.request plug shutdown_body));
            C.close plug))
  in
  (* each plug class and the storm's class count once, whether solved or
     answered by the class memo *)
  Alcotest.(check int) "one class computation for the storm" 1
    (class_computations () - computations0 - List.length plug_coords);
  Alcotest.(check int) "the other stormers coalesced" (stormers - 1) (hits ())

(* ----------------------------------------------------------- resilience *)

(* one worker and a pipelined burst of distinct cold solves at the given
   queue-depth cap; returns the engine summary, the solved / shed / other
   tallies, and how many sheds the serve.net counter recorded *)
let admission_burst ~max_queue_depth burst =
  let shed0 = Robust.Counters.get ~stage:"serve.net" "shed" in
  let config = net_config ~workers:1 ~max_queue_depth () in
  let summary, (solved, shed, other) =
    with_server ~config (temp_unix_addr ()) (fun addr ->
        let c = ok_or_fail "connect" (C.connect addr) in
        let ids =
          List.init burst (fun i ->
              (* distinct Weyl-chamber coords: no cache hits, no
                 coalescing, every request is a real solver job *)
              let z = 0.001 +. (0.28 *. float_of_int i /. float_of_int burst) in
              ok_or_fail "send"
                (C.send ~flush:false c
                   (J.Obj
                      [
                        ("op", J.Str "pulses");
                        ("coords", J.Arr [ J.Num 0.45; J.Num 0.3; J.Num z ]);
                      ])))
        in
        ok_or_fail "flush" (C.flush c);
        let solved = ref 0 and shed = ref 0 and other = ref 0 in
        List.iter
          (fun id ->
            let r = ok_or_fail "recv" (C.recv_id c id) in
            match J.mem_bool "ok" r with
            | Some true -> incr solved
            | _ ->
              if contains (J.to_string r) "serve.admission" then incr shed
              else incr other)
          ids;
        (* per-request shed: the same connection keeps serving *)
        let again = ok_or_fail "still serving" (C.request c (J.Obj [ ("op", J.Str "stats") ])) in
        Alcotest.(check (option bool)) "connection survives the sheds" (Some true)
          (J.mem_bool "ok" again);
        ignore (ok_or_fail "shutdown" (C.request c shutdown_body));
        C.close c;
        (!solved, !shed, !other))
  in
  let counted = Robust.Counters.get ~stage:"serve.net" "shed" - shed0 in
  (summary, solved, shed, other, counted)

let test_admission_shed () =
  (* queue depth 1: the transport must shed the overflow with a typed
     per-request [overloaded] (stage serve.admission) while still
     answering every id — and the connection must stay usable after *)
  let burst = 12 in
  let summary, solved, shed, other, counted = admission_burst ~max_queue_depth:1 burst in
  Alcotest.(check int) "every id answered" burst (solved + shed + other);
  Alcotest.(check int) "no non-shed failures" 0 other;
  Alcotest.(check bool) "something was shed" true (shed >= 1);
  Alcotest.(check bool) "something was solved" true (solved >= 1);
  Alcotest.(check int) "sheds counted" shed counted;
  (* sheds are refused before the engine: only executed jobs (plus the
     stats and shutdown) appear in the engine-side served tally *)
  Alcotest.(check int) "engine executed only the admitted" (solved + 2) summary.T.served;
  Alcotest.(check int) "no engine-side errors" 0 summary.T.errors;
  (* queue depth 0 turns shedding off: the same burst is solved whole *)
  let summary, solved, _, _, counted = admission_burst ~max_queue_depth:0 burst in
  Alcotest.(check int) "depth 0 solves every request" burst solved;
  Alcotest.(check int) "depth 0 sheds nothing" 0 counted;
  Alcotest.(check int) "depth 0 engine executed all" (burst + 2) summary.T.served

(* client-side counters move in a process with no sink installed (such
   as [reqisc_cli client]): each event lands once in Robust.Counters *)
let client_counter name = Robust.Counters.get ~stage:"serve.client" name

let test_breaker () =
  Alcotest.(check bool) "no sink installed" false (Obs.Sink.enabled ());
  let trips0 = client_counter "breaker_trip" and probes0 = client_counter "breaker_probe" in
  let shed =
    C.Server_error
      { kind = "overloaded"; stage = "serve.admission"; message = "shed"; id = J.Num 1.0 }
  in
  let b = C.Breaker.create ~threshold:2 ~cooldown:0.05 ~jitter:0.0 () in
  Alcotest.(check string) "starts closed" "closed" (C.Breaker.state b);
  C.Breaker.record b (Error (C.Overloaded "full") : (unit, C.error) result);
  Alcotest.(check string) "one failure stays closed" "closed" (C.Breaker.state b);
  C.Breaker.record b (Error (C.Timed_out "idle") : (unit, C.error) result);
  Alcotest.(check string) "threshold trips" "open" (C.Breaker.state b);
  Alcotest.(check int) "trip counted" 1 (C.Breaker.trips b);
  (match C.Breaker.admit b with
  | Error (C.Circuit_open { retry_after }) ->
    Alcotest.(check bool) "retry_after bounded" true
      (retry_after > 0.0 && retry_after <= 0.06)
  | Ok () -> Alcotest.fail "open breaker admitted a call"
  | Error e -> Alcotest.failf "expected circuit_open, got %s" (C.error_to_string e));
  Thread.delay 0.06;
  (match C.Breaker.admit b with
  | Ok () -> Alcotest.(check string) "cooldown opens a probe" "half_open" (C.Breaker.state b)
  | Error e -> Alcotest.failf "probe refused: %s" (C.error_to_string e));
  (* exactly one probe: concurrent callers keep failing fast *)
  (match C.Breaker.admit b with
  | Error (C.Circuit_open _) -> ()
  | Ok () -> Alcotest.fail "second concurrent probe admitted"
  | Error e -> Alcotest.failf "expected circuit_open, got %s" (C.error_to_string e));
  C.Breaker.record b (Ok () : (unit, C.error) result);
  Alcotest.(check string) "probe success closes" "closed" (C.Breaker.state b);
  (* an admission-control shed is overload-shaped even though the server
     answered: two of them must trip the breaker again *)
  C.Breaker.record b (Error shed : (unit, C.error) result);
  C.Breaker.record b (Error shed : (unit, C.error) result);
  Alcotest.(check string) "server-side sheds trip" "open" (C.Breaker.state b);
  Alcotest.(check int) "second trip counted" 2 (C.Breaker.trips b);
  Alcotest.(check int) "breaker_trip counter" 2 (client_counter "breaker_trip" - trips0);
  Alcotest.(check int) "breaker_probe counter" 1 (client_counter "breaker_probe" - probes0)

let test_connect_counters () =
  Alcotest.(check bool) "no sink installed" false (Obs.Sink.enabled ());
  let failed0 = client_counter "connect_failed" and reconnect0 = client_counter "reconnect" in
  (match C.connect ~retries:2 ~backoff:0.001 (temp_unix_addr ()) with
  | Error (C.Connect_failed { attempts; _ }) ->
    Alcotest.(check int) "attempts" 3 attempts
  | Ok _ -> Alcotest.fail "connected to a path with no listener"
  | Error e -> Alcotest.failf "expected connect_failed, got %s" (C.error_to_string e));
  Alcotest.(check int) "connect_failed counter" 3 (client_counter "connect_failed" - failed0);
  Alcotest.(check int) "reconnect counter" 2 (client_counter "reconnect" - reconnect0)

let () =
  Alcotest.run "serve_net"
    [
      ("addr", [ Alcotest.test_case "parsing" `Quick test_addr_parsing ]);
      ( "transport",
        [
          Alcotest.test_case "unix happy path" `Quick test_unix_happy_path;
          Alcotest.test_case "tcp happy path" `Quick test_tcp_happy_path;
          Alcotest.test_case "differential vs stdio" `Quick test_differential;
          Alcotest.test_case "shutdown drains queued" `Quick test_shutdown_drains_queued;
          Alcotest.test_case "bind failure" `Quick test_bind_failure;
          Alcotest.test_case "coalesce storm over socket" `Quick test_coalesce_storm;
        ] );
      ( "binary",
        [
          Alcotest.test_case "happy path" `Quick test_binary_happy_path;
          Alcotest.test_case "oversize frame" `Quick test_binary_oversize_frame;
          Alcotest.test_case "desync" `Quick test_binary_desync;
          Alcotest.test_case "mixed clients" `Quick test_mixed_frame_clients;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "overload refusal" `Quick test_overload_refusal;
          Alcotest.test_case "idle timeout" `Quick test_idle_timeout;
          Alcotest.test_case "frame cap" `Quick test_frame_cap;
          Alcotest.test_case "write overflow" `Quick test_write_overflow;
          Alcotest.test_case "slow reader" `Quick test_slow_reader;
        ] );
      ( "resilience",
        [
          Alcotest.test_case "admission shed" `Quick test_admission_shed;
          Alcotest.test_case "circuit breaker" `Quick test_breaker;
          Alcotest.test_case "connect counters" `Quick test_connect_counters;
        ] );
      ("stress", [ Alcotest.test_case "8x64 pipelined + disconnect" `Quick test_stress ]);
    ]
