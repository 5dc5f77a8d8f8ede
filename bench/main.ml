(* ReQISC benchmark harness: regenerates every table and figure of the
   paper's evaluation section. Usage:

     dune exec bench/main.exe [-- TARGET ...] [--big] [--haar-n N]
                              [--trajectories N] [--limit N] [--clients N]
                              [--seed N] [--csv-dir D]

   Targets: table1 table2 table3 fig4 fig5 fig6 fig12 fig13 fig14 fig15
   fig16 templates variational calibration decoherence calibrate leakage
   isa serve-net chaos obs all (default: all).
   isa compiles a suite prefix to every target ISA (--limit is its suite
   prefix), gates on the reconfigurable ISA beating every fixed target
   on 2Q count, and writes the matrix to BENCH_isa.json. For serve-net,
   --limit is the per-client request count, --clients the
   load-generator count, and --seed pins client-side jitter for
   reproducible latency percentiles. For obs, --limit is the suite
   prefix of the traced workload. For chaos, --limit is the
   per-client request count, --clients the client count, and --seed the
   fault-schedule seed.
   chaos is opt-in: it runs only when named explicitly, not under
   "all" (it rebinds process-global fault state).

   Unknown targets and malformed flag values are hard errors (exit 2), so a
   typo can't silently run the wrong benchmark set.

   REQISC_TRACE=FILE records the whole run with an Obs recorder and writes
   a Chrome trace-event JSON to FILE on exit (same contract as the CLI). *)

let known_targets =
  [ "table1"; "table2"; "table3"; "fig4"; "fig5"; "fig6"; "fig12"; "fig13";
    "fig14"; "fig15"; "fig16"; "templates"; "variational"; "calibration";
    "decoherence"; "calibrate"; "leakage"; "isa"; "serve-net"; "chaos";
    "obs"; "all" ]

let value_flags =
  [ "--haar-n"; "--trajectories"; "--limit"; "--clients"; "--seed"; "--csv-dir" ]

let usage () =
  Printf.eprintf "targets: %s\nflags:   --big, %s N\n"
    (String.concat " " known_targets)
    (String.concat " N, " value_flags)

let fail fmt =
  Printf.ksprintf
    (fun s ->
      Printf.eprintf "bench: %s\n" s;
      usage ();
      exit 2)
    fmt

let () =
  (match Sys.getenv_opt "REQISC_TRACE" with
  | Some path when path <> "" && not (Obs.Sink.enabled ()) ->
    let r = Obs.Recorder.start () in
    at_exit (fun () -> Obs.Export.write_chrome_trace path (Obs.Recorder.events r))
  | _ -> ());
  let args = List.tl (Array.to_list Sys.argv) in
  let has f = List.mem f args in
  let get_int flag default =
    let rec go = function
      | a :: b :: _ when a = flag -> (
        match int_of_string_opt b with
        | Some v -> v
        | None -> fail "%s expects an integer, got %S" flag b)
      | [ a ] when a = flag -> fail "%s expects an integer argument" flag
      | _ :: rest -> go rest
      | [] -> default
    in
    go args
  in
  let get_int_opt flag =
    let rec go = function
      | a :: b :: _ when a = flag -> (
        match int_of_string_opt b with
        | Some v -> Some v
        | None -> fail "%s expects an integer, got %S" flag b)
      | [ a ] when a = flag -> fail "%s expects an integer argument" flag
      | _ :: rest -> go rest
      | [] -> None
    in
    go args
  in
  (* validate the whole command line: anything that is not a known flag (or
     a flag's value) must be a known target *)
  let targets =
    let rec go acc = function
      | [] -> List.rev acc
      | f :: _ :: rest when List.mem f value_flags -> go acc rest
      | [ f ] when List.mem f value_flags -> fail "%s expects an argument" f
      | "--big" :: rest | "--" :: rest -> go acc rest
      | t :: rest when List.mem t known_targets -> go (t :: acc) rest
      | unknown :: _ -> fail "unknown target or flag %S" unknown
    in
    go [] args
  in
  let big = has "--big" in
  (let rec find_csv = function
     | "--csv-dir" :: d :: _ -> Util.csv_dir := Some d
     | _ :: rest -> find_csv rest
     | [] -> ()
   in
   find_csv args);
  let haar_n = get_int "--haar-n" 2000 in
  let trajectories = get_int "--trajectories" 120 in
  let limit = get_int_opt "--limit" in
  (match limit with
  | Some v when v <= 0 -> fail "--limit expects a positive integer, got %d" v
  | _ -> ());
  let clients = get_int "--clients" 8 in
  if clients <= 0 then fail "--clients expects a positive integer, got %d" clients;
  let seed = get_int_opt "--seed" in
  let targets = if targets = [] then [ "all" ] else targets in
  let want t = List.mem t targets || List.mem "all" targets in
  let total_t0 = Unix.gettimeofday () in
  if want "table1" then Tables.table1 ~big ();
  if want "table3" then Tables.table3 ~haar_n ();
  if want "fig4" then Figures.fig4 ();
  if want "fig5" then Figures.fig5 ();
  if want "fig6" then Figures.fig6 ~haar_n ();
  if want "table2" then Tables.table2 ?limit ~big ();
  if want "fig12" then Figures.fig12 ();
  if want "fig13" then Figures.fig13 ();
  if want "fig14" then Figures.fig14 ();
  if want "fig15" then Figures.fig15 ~trajectories ();
  if want "fig16" then Figures.fig16 ();
  if want "templates" then Extras.templates ();
  if want "variational" then Extras.variational ();
  if want "calibration" then Extras.calibration ();
  if want "decoherence" then Extras.decoherence ~trajectories ();
  if want "calibrate" then Extras.calibrate ();
  if want "leakage" then Extras.leakage_study ();
  if want "isa" then Isa_bench.isa_bench ?limit ~big ();
  if want "serve-net" then Serve_net_bench.serve_net ~clients ?requests:limit ?seed ();
  (* chaos only on explicit request: it arms process-global fault
     injection, which must never leak into the measurement targets *)
  if List.mem "chaos" targets then Chaos_bench.chaos ~clients ?requests:limit ?seed ();
  if want "obs" then Obs_bench.obs ?limit ~big ();
  Util.write_json ~tag:"robust" "BENCH_robust.json" (Util.robust_json ());
  Printf.printf "\ntotal bench time: %.1fs\n" (Unix.gettimeofday () -. total_t0)
