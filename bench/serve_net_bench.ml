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
   The socket pass runs twice — JSON lines and binary frames — and the
   gates apply to the binary pass. A separate duplicate-storm scenario
   starts K clients on one identical cold-cache request and counts
   solver runs: single-flight coalescing must collapse them to one.

   Writes BENCH_serve_net.json at the repo root. Gates:
   - meets_1x: binary-frame socket throughput >= direct in-process
   - p99_halved: client p99 <= 0.5x the recorded pre-event-loop baseline
   - storm.single_run: K identical concurrent requests, 1 solver run *)

open Util

module J = Serve.Json
module T = Serve.Transport
module C = Serve.Client

(* client p99 on the 8x64 pipelined warm-cache workload measured at the
   thread-per-connection transport this event loop replaced *)
let baseline_p99_ms = 98.63

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
    match
      Cache.create ~capacity:config.Serve.Server.cache_capacity ~path:cache_path ()
    with
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

(* one load-generator thread: send a window of pre-rendered requests in
   one buffered flush, then drain its responses, recording per-request
   completion latency (window dispatch -> response arrival; under
   pipelining this includes queue wait, which is the latency a loaded
   client actually sees). The connection is opened and every request
   rendered before the timer starts — the in-process pass reads a
   pre-written stream, so the socket pass must not be charged for
   request encoding the other side doesn't pay either. *)
let client_thread ~pipeline c (payloads : (string * string) array) =
  let requests = Array.length payloads in
  let sent = Hashtbl.create requests in
  let latencies = ref [] and errors = ref 0 in
  let window = if pipeline <= 0 then requests else pipeline in
  let j = ref 0 in
  while !j < requests do
    let n = min window (requests - !j) in
    for k = 0 to n - 1 do
      match C.send_line ~flush:false c (snd payloads.(!j + k)) with
      | Ok () -> ()
      | Error e -> failwith ("serve-net bench: send: " ^ C.error_to_string e)
    done;
    (match C.flush c with
    | Ok () -> ()
    | Error e -> failwith ("serve-net bench: flush: " ^ C.error_to_string e));
    let t0 = Unix.gettimeofday () in
    for k = 0 to n - 1 do
      Hashtbl.replace sent (fst payloads.(!j + k)) t0
    done;
    for _ = 1 to n do
      match C.recv_raw c with
      | Error e -> failwith ("serve-net bench: recv: " ^ C.error_to_string e)
      | Ok raw ->
        let now = Unix.gettimeofday () in
        let key, ok = scan_response raw in
        if not ok then incr errors;
        (match Hashtbl.find_opt sent key with
        | Some t0 -> latencies := (now -. t0) :: !latencies
        | None -> incr errors)
    done;
    j := !j + n
  done;
  (!latencies, !errors)

let with_net_server ~config addr f = Util.with_net_server ~tag:"serve-net bench" ~config addr f

let run_socket ~frames ~cache_path ~clients ~requests ~pipeline =
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
              match C.connect ~retries:3 ~frames addr with
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
                          client_thread ~pipeline conns.(client) payloads.(client))
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

(* ------------------------------------------------------ duplicate storm *)

(* K clients fire one identical cold-cache request concurrently; the
   engine's single-flight admission must run the solver once and fan the
   result out. To make the measurement deterministic on any scheduler,
   one plug client first queues distinct cold solves on the single
   worker — every storm request is submitted (and coalesced) while the
   plug is still executing, so arrival jitter cannot split the flight. *)
let storm_request =
  "{\"v\":1,\"id\":1,\"op\":\"pulses\",\"coords\":[0.6,0.5,0.4]}"

let plug_coords = List.init 16 (fun i -> (0.5, 0.3, 0.002 *. float_of_int (i + 1)))

let duplicate_storm ~stormers =
  let path = Filename.temp_file "reqisc_net" ".sock" in
  Sys.remove path;
  let config =
    { T.server = { Serve.Server.default_config with Serve.Server.workers = 1 };
      T.max_connections = stormers + 4;
      T.idle_timeout = 60.0;
      T.max_line_bytes = Serve.Protocol.max_line_bytes;
      T.max_write_buffer = T.default_config.T.max_write_buffer;
      T.max_queue_depth = T.default_config.T.max_queue_depth }
  in
  let computations_before = class_computations () in
  let hits_before = Robust.Counters.get ~stage:"serve" "coalesce_hit" in
  let _summary, () =
    with_net_server ~config (T.Unix_path path) (fun addr ->
        let plug =
          match C.connect addr with
          | Ok c -> c
          | Error e -> failwith ("serve-net bench: plug: " ^ C.error_to_string e)
        in
        List.iter
          (fun (x, y, z) ->
            let line =
              Printf.sprintf "{\"v\":1,\"op\":\"pulses\",\"coords\":[%.17g,%.17g,%.17g]}"
                x y z
            in
            match C.send_line ~flush:false plug line with
            | Ok () -> ()
            | Error e -> failwith ("serve-net bench: plug send: " ^ C.error_to_string e))
          plug_coords;
        (match C.flush plug with
        | Ok () -> ()
        | Error e -> failwith ("serve-net bench: plug flush: " ^ C.error_to_string e));
        let connected = Atomic.make 0 in
        let release = Atomic.make false in
        let threads =
          List.init stormers (fun _ ->
              Thread.create
                (fun () ->
                  let c =
                    match C.connect addr with
                    | Ok c -> c
                    | Error e ->
                      failwith ("serve-net bench: storm: " ^ C.error_to_string e)
                  in
                  Atomic.incr connected;
                  while not (Atomic.get release) do
                    Thread.yield ()
                  done;
                  (match C.send_line c storm_request with
                  | Ok () -> ()
                  | Error e ->
                    failwith ("serve-net bench: storm send: " ^ C.error_to_string e));
                  (match C.recv c with
                  | Ok _ -> ()
                  | Error e ->
                    failwith ("serve-net bench: storm recv: " ^ C.error_to_string e));
                  C.close c)
                ())
        in
        while Atomic.get connected < stormers do
          Thread.yield ()
        done;
        Atomic.set release true;
        List.iter Thread.join threads;
        (* drain the plug's responses so the server summary is clean *)
        List.iter
          (fun _ ->
            match C.recv plug with
            | Ok _ -> ()
            | Error e -> failwith ("serve-net bench: plug recv: " ^ C.error_to_string e))
          plug_coords;
        C.close plug)
  in
  (* each plug class and the storm's class count once, whether solved or
     answered by the class memo *)
  let solve_runs = class_computations () - computations_before - List.length plug_coords in
  let coalesce_hits = Robust.Counters.get ~stage:"serve" "coalesce_hit" - hits_before in
  (solve_runs, coalesce_hits)

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

let measure_pass ~frames ~cache_path ~clients ~requests ~pipeline ~total =
  let one () =
    let summary, seconds, latencies, client_errors =
      run_socket ~frames ~cache_path ~clients ~requests ~pipeline
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

let pass_json name (p : pass) =
  Printf.sprintf
    "  \"%s\": {\"seconds\": %.4f, \"throughput_rps\": %.1f, \"latency_ms\": {\"p50\": %.3f, \"p99\": %.3f, \"p999\": %.3f, \"max\": %.3f}, \"served\": %d, \"server_errors\": %d, \"refused\": %d, \"client_errors\": %d},\n"
    name p.seconds p.rps (1e3 *. p.p50) (1e3 *. p.p99) (1e3 *. p.p999)
    (1e3 *. p.lat_max) p.served p.server_errors p.refused p.client_errors

let write_json path ~clients ~requests ~pipeline ~total ~stdio_t ~stdio_rps
    ~(json_pass : pass) ~(bin_pass : pass) ~ratio ~ratio_json ~storm_clients
    ~storm_runs ~coalesce_hits =
  Util.write_json_report ~tag:"serve-net" path (fun buf ->
      let bpf fmt = Util.bprintf buf fmt in
      bpf
        "  \"workload\": {\"clients\": %d, \"requests_per_client\": %d, \"pipeline\": %d, \"total\": %d, \"transport\": \"unix\"},\n"
        clients requests pipeline total;
      bpf
        "  \"in_process\": {\"mode\": \"direct\", \"seconds\": %.4f, \"throughput_rps\": %.1f},\n"
        stdio_t stdio_rps;
      bpf "%s" (pass_json "socket_json" json_pass);
      bpf "%s" (pass_json "socket_binary" bin_pass);
      bpf "  \"latency_ms\": {\"p50\": %.3f, \"p99\": %.3f, \"p999\": %.3f, \"max\": %.3f},\n"
        (1e3 *. bin_pass.p50) (1e3 *. bin_pass.p99) (1e3 *. bin_pass.p999)
        (1e3 *. bin_pass.lat_max);
      bpf "  \"throughput_ratio\": %.3f,\n" ratio;
      bpf "  \"throughput_ratio_json\": %.3f,\n" ratio_json;
      bpf "  \"baseline_p99_ms\": %.2f,\n" baseline_p99_ms;
      bpf "  \"p99_halved\": %b,\n" (1e3 *. bin_pass.p99 <= 0.5 *. baseline_p99_ms);
      bpf "  \"meets_1x\": %b,\n" (ratio >= 1.0);
      bpf "  \"within_2x\": %b,\n" (ratio >= 0.5);
      bpf
        "  \"storm\": {\"clients\": %d, \"requests\": %d, \"solver_runs\": %d, \"coalesce_hits\": %d, \"single_run\": %b}\n"
        storm_clients storm_clients storm_runs coalesce_hits (storm_runs = 1))

let print_pass name (p : pass) =
  Printf.printf "  %-11s %.3fs  (%.0f req/s)  p50 %.2fms  p99 %.2fms  p999 %.2fms\n"
    name p.seconds p.rps (1e3 *. p.p50) (1e3 *. p.p99) (1e3 *. p.p999)

let serve_net ?(clients = 8) ?(pipeline = 0) ?requests ?seed () =
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
  let bin_pass =
    measure_pass ~frames:C.Binary ~cache_path ~clients ~requests ~pipeline ~total
  in
  let json_pass =
    measure_pass ~frames:C.Json_lines ~cache_path ~clients ~requests ~pipeline ~total
  in
  Sys.remove cache_path;
  let storm_clients = max 8 clients in
  let storm_runs, coalesce_hits = duplicate_storm ~stormers:storm_clients in
  let stdio_rps = float_of_int total /. stdio_t in
  let ratio = bin_pass.rps /. stdio_rps in
  let ratio_json = json_pass.rps /. stdio_rps in
  Printf.printf
    "  workload: %d clients x %d requests = %d (pipeline %s, warm cache, 2 workers)\n"
    clients requests total
    (if pipeline <= 0 then "full" else string_of_int pipeline);
  Printf.printf "  in-process (direct, no serving layer): %.3fs  (%.0f req/s)\n"
    stdio_t stdio_rps;
  print_pass "socket/json" json_pass;
  print_pass "socket/bin" bin_pass;
  Printf.printf "  socket(binary)/in-process throughput ratio %.2f (target >= 1.0): %s\n"
    ratio
    (if ratio >= 1.0 then "PASS" else "FAIL");
  Printf.printf "  client p99 %.2fms vs baseline %.2fms (target <= 0.5x): %s\n"
    (1e3 *. bin_pass.p99) baseline_p99_ms
    (if 1e3 *. bin_pass.p99 <= 0.5 *. baseline_p99_ms then "PASS" else "FAIL");
  Printf.printf "  duplicate storm: %d identical cold requests -> %d solver run%s (%d coalesce hits): %s\n"
    storm_clients storm_runs
    (if storm_runs = 1 then "" else "s")
    coalesce_hits
    (if storm_runs = 1 then "PASS" else "FAIL");
  if bin_pass.server_errors > 0 || bin_pass.client_errors > 0
     || json_pass.server_errors > 0 || json_pass.client_errors > 0 then
    Printf.printf "  WARNING: error responses (json %d/%d, binary %d/%d)\n"
      json_pass.server_errors json_pass.client_errors bin_pass.server_errors
      bin_pass.client_errors;
  write_json "BENCH_serve_net.json" ~clients ~requests ~pipeline ~total ~stdio_t
    ~stdio_rps ~json_pass ~bin_pass ~ratio ~ratio_json ~storm_clients ~storm_runs
    ~coalesce_hits
