(* `serve-net` bench target: multi-client load over the socket transport
   vs the same request stream executed directly in-process — a library
   embedder calling {!Serve.Engine.exec_once} per request, no serving
   layer, no coalescing (single-flight is a serving-layer feature that
   only exists where concurrent requests meet; the direct path is the
   work a caller does without the server). Both sides share one warm
   pulse cache (populated by an untimed pass) and both render-and-check
   every response, so the serving layer's whole overhead budget —
   framing, socket hops, the event loop, the demux — must be paid for
   by what it uniquely buys: concurrent admission and coalescing.
   Clients speak binary frames.

   Writes BENCH_serve_net.json at the repo root. Gates:
   - meets_1x: socket throughput >= direct in-process
   - within_2x: socket throughput >= 0.5x direct in-process *)

open Util

module J = Robust.Json
module T = Serve.Transport
module C = Serve.Client

let gates = [| "cnot"; "cz"; "iswap"; "swap" |]

(* client [c]'s [j]th request; every other request is a warm-cache pulse
   synthesis, the rest are stats (pure engine overhead) *)
let request_body ~client ~j =
  let id = J.Str (Printf.sprintf "c%d-%d" client j) in
  let op =
    if j mod 2 = 0 then
      [ ("op", J.Str "pulses"); ("gate", J.Str gates.(j / 2 mod Array.length gates)) ]
    else [ ("op", J.Str "stats") ]
  in
  J.Obj (("id", id) :: ("v", J.Num (float_of_int Serve.Protocol.version)) :: op)

let stream ~clients ~requests =
  List.concat_map
    (fun c -> List.init requests (fun j -> J.to_string (request_body ~client:c ~j)))
    (List.init clients (fun c -> c))

let server_config cache_path =
  { Serve.Server.default_config with Serve.Server.workers = 2;
    Serve.Server.cache_path = Some cache_path }

(* ----------------------------------------------------- response scanning *)

(* responses open with {"id":<id>,"v":1,"ok":<bool>,...} — slice the id
   and check ok without parsing the whole object; both passes run this
   over every response they consume, so neither is charged decode
   overhead the other doesn't pay *)
let ok_marker = "\"ok\":true"

let has_ok_true raw =
  let n = String.length raw and m = String.length ok_marker in
  let rec go i =
    i + m <= n
    && (String.sub raw i m = ok_marker
       || match String.index_from_opt raw (i + 1) '"' with
          | Some j -> go j
          | None -> false)
  in
  match String.index_opt raw '"' with Some i -> go i | None -> false

let scan_response raw =
  let n = String.length raw in
  if n > 6 && String.sub raw 0 6 = "{\"id\":" then
    match String.index_from_opt raw 6 ',' with
    | Some comma -> (String.sub raw 6 (comma - 6), has_ok_true raw)
    | None -> (raw, false)
  else (raw, false)

(* ------------------------------------------------------ in-process path *)

(* The in-process comparator: a library embedder computing the same
   request stream directly — parse, execute, render, check, one request
   at a time through {!Serve.Engine.exec_once}. No queue, no workers, no
   coalescing: those are what the serving layer adds, so they belong on
   the socket side of the ratio, not both sides. Engine setup and
   teardown stay outside the timed region, mirroring the socket pass
   whose clients connect and render requests before its timer starts.
   Returns the elapsed seconds of the request loop alone. *)
let run_direct ~cache_path lines =
  let config = server_config cache_path in
  let cache =
    match Cache.create ~path:cache_path () with
    | Ok c -> c
    | Error e -> failwith ("serve-net bench: cache: " ^ e)
  in
  let eng =
    Serve.Engine.create ~workers:1 ~coalesce:false ~cache
      ~seed:config.Serve.Server.seed ()
  in
  let bad = ref 0 in
  let (), elapsed =
    timeit (fun () ->
        List.iter
          (fun line ->
            let resp =
              Serve.Engine.exec_once eng (Serve.Protocol.parse_line line)
            in
            let _, ok = scan_response (J.to_string resp) in
            if not ok then incr bad)
          lines)
  in
  Serve.Engine.drain eng;
  if !bad > 0 then
    failwith "serve-net bench: in-process pass produced error responses";
  elapsed

(* ---------------------------------------------------------- socket path *)

(* one load-generator thread: send every pre-rendered request in one
   buffered flush, then drain the responses, recording per-request
   completion latency (dispatch -> response arrival; this includes queue
   wait, which is the latency a loaded client actually sees). The
   connection is opened and every request rendered before the timer
   starts — the in-process pass reads a pre-written stream, so the
   socket pass must not be charged for request encoding the other side
   doesn't pay either. *)
let client_thread c (payloads : (string * string) array) =
  let latencies = ref [] and errors = ref 0 in
  Array.iter
    (fun (_, line) ->
      match C.send_line ~flush:false c line with
      | Ok () -> ()
      | Error e -> failwith ("serve-net bench: send: " ^ C.error_to_string e))
    payloads;
  (match C.flush c with
  | Ok () -> ()
  | Error e -> failwith ("serve-net bench: flush: " ^ C.error_to_string e));
  let t0 = Unix.gettimeofday () in
  let sent = Hashtbl.create (Array.length payloads) in
  Array.iter (fun (key, _) -> Hashtbl.replace sent key ()) payloads;
  Array.iter
    (fun _ ->
      match C.recv_raw c with
      | Error e -> failwith ("serve-net bench: recv: " ^ C.error_to_string e)
      | Ok raw ->
        let now = Unix.gettimeofday () in
        let key, ok = scan_response raw in
        if not ok then incr errors;
        if Hashtbl.mem sent key then latencies := (now -. t0) :: !latencies
        else incr errors)
    payloads;
  (!latencies, !errors)

let with_net_server ~config addr f = Util.with_net_server ~tag:"serve-net bench" ~config addr f

let run_socket ~cache_path ~clients ~requests =
  let path = Filename.temp_file "reqisc_net" ".sock" in
  Sys.remove path;
  let config =
    { T.server = server_config cache_path;
      T.max_connections = clients + 4;
      T.idle_timeout = 60.0;
      T.max_line_bytes = Serve.Protocol.max_line_bytes;
      T.max_write_buffer = T.default_config.T.max_write_buffer;
      T.max_queue_depth = T.default_config.T.max_queue_depth }
  in
  (* render every request (and the id key its response will echo) before
     the timer starts, mirroring the pre-written in-process stream *)
  let payloads =
    Array.init clients (fun client ->
        Array.init requests (fun j ->
            ( J.to_string (J.Str (Printf.sprintf "c%d-%d" client j)),
              J.to_string (request_body ~client ~j) )))
  in
  let results = Array.make clients ([], 0) in
  let summary, elapsed =
    with_net_server ~config (T.Unix_path path) (fun addr ->
        let conns =
          Array.init clients (fun _ ->
              match C.connect ~retries:3 ~frames:C.Binary addr with
              | Ok c -> c
              | Error e -> failwith ("serve-net bench: " ^ C.error_to_string e))
        in
        let (), elapsed =
          timeit (fun () ->
              let threads =
                List.init clients (fun client ->
                    Thread.create
                      (fun () ->
                        results.(client) <-
                          client_thread conns.(client) payloads.(client))
                      ())
              in
              List.iter Thread.join threads)
        in
        Array.iter C.close conns;
        elapsed)
  in
  let latencies = List.concat_map fst (Array.to_list results) in
  let errors = Array.fold_left (fun a (_, e) -> a + e) 0 results in
  (summary, elapsed, List.sort compare latencies, errors)

(* ----------------------------------------------------------------- main *)

type pass = {
  seconds : float;
  rps : float;
  p50 : float;
  p99 : float;
  p999 : float;
  lat_max : float;
  served : int;
  server_errors : int;
  refused : int;
  client_errors : int;
}

(* scheduler noise on a loaded box swings any single pass by tens of
   percent; every timed pass (in-process and socket alike) runs [reps]
   times and the fastest one speaks for the code *)
let reps = 5

let measure_pass ~cache_path ~clients ~requests ~total =
  let one () =
    let summary, seconds, latencies, client_errors =
      run_socket ~cache_path ~clients ~requests
    in
    {
      seconds;
      rps = (float_of_int total /. seconds);
      p50 = percentile latencies 0.50;
      p99 = percentile latencies 0.99;
      p999 = percentile latencies 0.999;
      lat_max = (match List.rev latencies with [] -> 0.0 | m :: _ -> m);
      served = summary.T.served;
      server_errors = summary.T.errors;
      refused = summary.T.refused;
      client_errors;
    }
  in
  let passes = List.init reps (fun _ -> one ()) in
  List.fold_left (fun best p -> if p.seconds < best.seconds then p else best)
    (List.hd passes) (List.tl passes)

let latency_json (p : pass) =
  let ms s = J.Num (1e3 *. s) in
  J.Obj [ ("p50", ms p.p50); ("p99", ms p.p99); ("p999", ms p.p999); ("max", ms p.lat_max) ]

let pass_json (p : pass) =
  J.Obj
    [
      ("seconds", J.Num p.seconds); ("throughput_rps", J.Num p.rps);
      ("latency_ms", latency_json p);
      ("served", int p.served); ("server_errors", int p.server_errors);
      ("refused", int p.refused); ("client_errors", int p.client_errors);
    ]

let write_json path ~clients ~requests ~total ~stdio_t ~stdio_rps
    ~(bin_pass : pass) ~ratio =
  Util.write_json ~tag:"serve-net" path
    (J.Obj
       [
         ( "workload",
           J.Obj
             [
               ("clients", int clients); ("requests_per_client", int requests);
               ("total", int total); ("transport", J.Str "unix");
             ] );
         ( "in_process",
           J.Obj
             [
               ("mode", J.Str "direct"); ("seconds", J.Num stdio_t);
               ("throughput_rps", J.Num stdio_rps);
             ] );
         ("socket_binary", pass_json bin_pass);
         ("latency_ms", latency_json bin_pass);
         ("throughput_ratio", J.Num ratio);
         ("meets_1x", J.Bool (ratio >= 1.0));
         ("within_2x", J.Bool (ratio >= 0.5));
       ])

let print_pass name (p : pass) =
  Printf.printf "  %-11s %.3fs  (%.0f req/s)  p50 %.2fms  p99 %.2fms  p999 %.2fms\n"
    name p.seconds p.rps (1e3 *. p.p50) (1e3 *. p.p99) (1e3 *. p.p999)

let serve_net ?(clients = 8) ?requests ?seed () =
  let requests = match requests with Some r -> r | None -> 64 in
  hr "serve-net: socket transport load vs in-process server";
  (* --seed pins client-side retry/backoff jitter so latency percentiles
     are reproducible run-to-run on a loaded box *)
  (match seed with
  | Some s ->
    C.seed_jitter s;
    Printf.printf "  jitter seed: %d\n" s
  | None -> ());
  let cache_path = Filename.temp_file "reqisc_bench" ".rqcache" in
  let total = clients * requests in
  let lines = stream ~clients ~requests in
  (* untimed warm-up: populate the shared pulse cache so every timed
     pass (direct and socket alike) replays hits and the serving layer
     is the variable *)
  ignore (run_direct ~cache_path lines);
  let stdio_t =
    List.fold_left min infinity
      (List.init reps (fun _ -> run_direct ~cache_path lines))
  in
  let bin_pass = measure_pass ~cache_path ~clients ~requests ~total in
  Sys.remove cache_path;
  let stdio_rps = float_of_int total /. stdio_t in
  let ratio = bin_pass.rps /. stdio_rps in
  Printf.printf
    "  workload: %d clients x %d requests = %d (pipelined, warm cache, 2 workers)\n"
    clients requests total;
  Printf.printf "  in-process (direct, no serving layer): %.3fs  (%.0f req/s)\n"
    stdio_t stdio_rps;
  print_pass "socket/bin" bin_pass;
  Printf.printf "  socket(binary)/in-process throughput ratio %.2f (target >= 1.0): %s\n"
    ratio
    (if ratio >= 1.0 then "PASS" else "FAIL");
  if bin_pass.server_errors > 0 || bin_pass.client_errors > 0 then
    Printf.printf "  WARNING: error responses (server %d, client %d)\n"
      bin_pass.server_errors bin_pass.client_errors;
  write_json "BENCH_serve_net.json" ~clients ~requests ~total ~stdio_t ~stdio_rps
    ~bin_pass ~ratio
