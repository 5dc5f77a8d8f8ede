(* `serve` bench target: pulse-cache effectiveness on a table2-style
   workload (compile Eff, then synthesize pulses for every compiled 2Q
   gate), cold vs warm against the same on-disk store, plus an in-process
   protocol smoke of the compilation server. Writes BENCH_serve.json at
   the repo root; the temp cache file is removed before returning so
   `make check` leaves no stray caches behind. *)

open Util

(* both passes run with a cache installed, so the class memo never
   answers and every class computation here is a root search *)
let solve_runs = class_computations
let cache_hits () = Robust.Counters.get ~stage:"genashn" "cache_hit"

(* IEEE bits, not decimal: the warm run must replay the cold pulses
   bit-for-bit, so the rendered workload output is compared as raw bytes *)
let bits f = Printf.sprintf "%016Lx" (Int64.bits_of_float f)

let render_pulse buf (p : Microarch.Genashn.pulse) =
  Printf.ksprintf (Buffer.add_string buf) "%s %s %s %s %s"
    (Microarch.Tau.subscheme_to_string p.Microarch.Genashn.subscheme)
    (bits p.Microarch.Genashn.tau)
    (bits p.Microarch.Genashn.drive_x1)
    (bits p.Microarch.Genashn.drive_x2)
    (bits p.Microarch.Genashn.delta)

let render_outcome buf (o : Reqisc.gate_outcome) =
  Buffer.add_string buf (Gate.to_string o.gate);
  (match o.outcome with
  | Robust.Outcome.Solved instr ->
    Buffer.add_string buf " ok ";
    render_pulse buf instr.Reqisc.pulse
  | Robust.Outcome.Degraded (instr, i) ->
    Printf.ksprintf (Buffer.add_string buf) " degraded(%s,%d,%s) "
      (bits i.Robust.Outcome.residual)
      i.Robust.Outcome.retries i.Robust.Outcome.note;
    render_pulse buf instr.Reqisc.pulse
  | Robust.Outcome.Failed e ->
    Buffer.add_string buf (" failed " ^ Robust.Err.to_string e));
  Buffer.add_char buf '\n'

(* one deterministic pass over the suite prefix: fresh seed-1 rng per
   bench, so cold and warm runs see byte-identical compile outputs and
   the only variable is the pulse cache *)
let run_workload ~limit ~big () =
  let suite = Benchmarks.Suite.suite ~big () in
  let suite = List.filteri (fun i _ -> i < limit) suite in
  let buf = Buffer.create (1 lsl 16) in
  List.iter
    (fun (b : Benchmarks.Suite.bench) ->
      let rng = Numerics.Rng.create 1L in
      let out = Compiler.Pipeline.compile ~mode:Compiler.Pipeline.Eff rng b.program in
      Printf.ksprintf (Buffer.add_string buf) "== %s #2Q=%d\n" b.name
        (Circuit.count_2q out.Compiler.Pipeline.circuit);
      List.iter (render_outcome buf) (Reqisc.pulse_outcomes xy out.Compiler.Pipeline.circuit))
    suite;
  Buffer.contents buf

let contains s sub =
  let n = String.length sub and len = String.length s in
  let rec go i = i + n <= len && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* drive a real Server.run over temp-file channels: three requests
   (stats, pulses, batch) must yield three ok responses and a clean
   drain *)
let protocol_smoke () =
  let req_path = Filename.temp_file "reqisc_serve" ".in" in
  let resp_path = Filename.temp_file "reqisc_serve" ".out" in
  let oc = open_out req_path in
  output_string oc
    "{\"v\":1,\"id\":1,\"op\":\"stats\"}\n\
     {\"v\":1,\"id\":2,\"op\":\"pulses\",\"gate\":\"cnot\"}\n\
     {\"v\":1,\"id\":3,\"op\":\"batch\",\"requests\":[{\"op\":\"pulses\",\"gate\":\"cz\"},{\"op\":\"stats\"}]}\n";
  close_out oc;
  let ic = open_in req_path in
  let out = open_out resp_path in
  let summary =
    Serve.Server.run
      ~config:{ Serve.Server.default_config with Serve.Server.workers = 2 }
      ic out
  in
  close_in ic;
  close_out out;
  let lines = ref [] in
  let ic = open_in resp_path in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove req_path;
  Sys.remove resp_path;
  let lines = List.rev !lines in
  match summary with
  | Error e -> (false, 0, Printf.sprintf "server failed to start: %s" e)
  | Ok s ->
    let ok =
      s.Serve.Server.errors = 0
      && List.length lines = 3
      && List.for_all (fun l -> contains l "\"ok\":true") lines
    in
    (ok, List.length lines, "")

let write_json path ~limit ~cold_solves ~cold_t ~warm_solves ~warm_hits ~warm_t
    ~reduction ~identical ~(warm_stats : Cache.stats) ~smoke_ok ~smoke_responses =
  let buf = Buffer.create 1024 in
  let bpf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  bpf "{\n";
  bpf "  \"workload\": {\"benches\": %d, \"mode\": \"eff\"},\n" limit;
  bpf "  \"cold\": {\"solver_runs\": %d, \"seconds\": %.3f},\n" cold_solves cold_t;
  bpf "  \"warm\": {\"solver_runs\": %d, \"cache_hits\": %d, \"seconds\": %.3f},\n"
    warm_solves warm_hits warm_t;
  bpf "  \"solver_call_reduction\": %.4f,\n" reduction;
  bpf "  \"byte_identical_output\": %b,\n" identical;
  bpf "  \"cache\": {\"disk_records\": %d, \"disk_bytes\": %d, \"torn_bytes\": %d},\n"
    warm_stats.Cache.disk_records warm_stats.Cache.disk_bytes
    warm_stats.Cache.torn_bytes;
  bpf "  \"protocol_smoke\": {\"ok\": %b, \"responses\": %d}\n" smoke_ok
    smoke_responses;
  bpf "}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "  [serve] wrote %s\n%!" path

let serve ?(limit = 6) ~big () =
  hr "serve: pulse cache warm-vs-cold + protocol smoke";
  let cache_path = Filename.temp_file "reqisc_bench" ".rqcache" in
  let open_cache () =
    match Cache.create ~path:cache_path () with
    | Ok c -> c
    | Error e -> failwith ("serve bench: cannot open cache: " ^ e)
  in
  (* cold: empty store; every distinct Weyl class costs a solver run *)
  let cold_cache = open_cache () in
  let s0 = solve_runs () in
  let cold_out, cold_t =
    timeit (fun () -> Reqisc.with_pulse_cache cold_cache (run_workload ~limit ~big))
  in
  let cold_solves = solve_runs () - s0 in
  Cache.close cold_cache;
  (* warm: reopen the same store from disk — the reload path, not just
     the still-resident LRU, must serve the hits *)
  let warm_cache = open_cache () in
  let s1 = solve_runs () and h0 = cache_hits () in
  let warm_out, warm_t =
    timeit (fun () -> Reqisc.with_pulse_cache warm_cache (run_workload ~limit ~big))
  in
  let warm_solves = solve_runs () - s1 in
  let warm_hits = cache_hits () - h0 in
  let warm_stats = Cache.stats warm_cache in
  Cache.close warm_cache;
  Sys.remove cache_path;
  let reduction =
    if cold_solves = 0 then 0.0
    else 1.0 -. (float_of_int warm_solves /. float_of_int cold_solves)
  in
  let identical = String.equal cold_out warm_out in
  Printf.printf "  benches %d  cold solver runs %d (%.2fs)  warm %d (%.2fs)\n"
    limit cold_solves cold_t warm_solves warm_t;
  Printf.printf "  solver-call reduction %.1f%% (target >= 50%%): %s\n"
    (100.0 *. reduction)
    (if reduction >= 0.5 then "PASS" else "FAIL");
  Printf.printf "  cold vs warm output byte-identical: %s\n"
    (if identical then "PASS" else "FAIL");
  Printf.printf "  disk store: %d records, %d bytes\n"
    warm_stats.Cache.disk_records warm_stats.Cache.disk_bytes;
  let smoke_ok, smoke_responses, smoke_msg = protocol_smoke () in
  Printf.printf "  protocol smoke (3 requests, 2 workers): %s%s\n"
    (if smoke_ok then "PASS" else "FAIL")
    (if smoke_msg = "" then "" else " — " ^ smoke_msg);
  write_json "BENCH_serve.json" ~limit ~cold_solves ~cold_t ~warm_solves ~warm_hits
    ~warm_t ~reduction ~identical ~warm_stats ~smoke_ok ~smoke_responses
