(* reqisc command-line tool.

   Usage:
     reqisc_cli list
     reqisc_cli compile BENCH [--mode eff|full|nc] [--isa NAME] [--route chain|grid] [--pulses]
     reqisc_cli pulse GATE [--coupling xy|xx] (GATE in cnot|cz|iswap|sqisw|b|swap)
     reqisc_cli qasm FILE [--pulses]
     reqisc_cli serve [--listen tcp:HOST:PORT|unix:PATH] [--cache FILE]
                      [--workers N] [--capacity N] [--max-conns N]
                      [--max-queue N] [--idle-timeout S] [--max-line BYTES]
     reqisc_cli client --connect tcp:HOST:PORT|unix:PATH [--retries N]
                       [--backoff S] [--jitter J] [--frames json|binary]
                       [--timeout S] [REQUEST...]
     reqisc_cli cache stats --cache FILE
     reqisc_cli cache compact --cache FILE
     reqisc_cli trace [--out FILE] [--prom FILE] SUBCOMMAND [ARGS...]

   `serve` speaks the line-delimited JSON protocol on stdin/stdout (one
   request per line, one response per line; see DESIGN.md "Service &
   cache"); diagnostics go to stderr only, so stdout stays pure protocol.
   With --listen it serves the same protocol over TCP or a Unix-domain
   socket instead (DESIGN.md "Network transport"); `client` is the
   matching sender — request lines from argv or stdin, responses to
   stdout, deterministic retry/backoff against an overloaded server.

   `trace` runs any other subcommand with the observability sink
   installed and writes a Chrome trace-event JSON (load in Perfetto /
   chrome://tracing) and/or a Prometheus text snapshot on exit. Setting
   REQISC_TRACE=FILE does the same for a plain invocation.

   Exit codes: 0 success, 2 usage error, 3 parse error, 4 solver error.
   `--help` on any subcommand prints its synopsis and exits 0; any other
   `--x` token not in that synopsis is a usage error.
   Structured errors go to stderr as "error[kind] stage: detail". *)

let exit_usage = 2
let exit_parse = 3

(* ------------------------------------------------------ shared usage *)

let subcommands =
  [
    ("list", "list", "show the benchmark suite, grouped by category");
    ( "compile",
      "compile BENCH [--mode eff|full|nc] [--isa NAME] [--passes a,b,c] [--start-from PASS] [--stop-after PASS] [--route chain|grid] [--pulses]",
      "compile a suite benchmark to the SU(4) ISA, or lower to a fixed target ISA" );
    ( "passes",
      "passes",
      "list the registered compiler passes and the named plans" );
    ( "pulse",
      "pulse GATE [--coupling xy|xx]",
      "synthesize one pulse (GATE in cnot|cz|iswap|sqisw|b|swap)" );
    ("qasm", "qasm FILE [--pulses]", "parse a REQASM file and report metrics");
    ( "serve",
      "serve [--listen tcp:HOST:PORT|unix:PATH] [--cache FILE] [--workers N] [--capacity N] [--max-conns N] [--max-queue N] [--idle-timeout S] [--max-line BYTES]",
      "serve the JSON protocol on stdin/stdout, or on a socket with --listen" );
    ( "client",
      "client --connect tcp:HOST:PORT|unix:PATH [--retries N] [--backoff S] [--jitter J] [--frames json|binary] [--timeout S] [REQUEST...]",
      "send request lines (args, or stdin when none) to a serve --listen instance" );
    ( "cache",
      "cache stats|compact --cache FILE",
      "print cache statistics as JSON / compact the store file in place" );
    ( "trace",
      "trace [--out FILE] [--prom FILE] SUBCOMMAND [ARGS...]",
      "run a subcommand traced; write Chrome trace / Prometheus text" );
  ]

let print_usage oc =
  output_string oc "usage: reqisc_cli SUBCOMMAND [ARGS...]\n\nsubcommands:\n";
  List.iter
    (fun (_, syn, desc) -> Printf.fprintf oc "  %-62s %s\n" syn desc)
    subcommands;
  output_string oc
    "\nexit codes: 0 success, 2 usage error, 3 parse error, 4 solver error\n\
     environment: REQISC_TRACE=FILE writes a Chrome trace of the run to FILE\n"

let print_subcommand_help name =
  match List.find_opt (fun (n, _, _) -> n = name) subcommands with
  | Some (_, syn, desc) -> Printf.printf "usage: reqisc_cli %s\n  %s\n" syn desc
  | None -> print_usage stdout

let help_requested args = List.mem "--help" args || List.mem "-h" args

let usage_error fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "error[usage]: %s\n(run `reqisc_cli --help` for usage)\n" msg;
      exit exit_usage)
    fmt

(* a subcommand accepts exactly the [--x] tokens of its synopsis, so a
   misspelled or retired flag stops the run instead of being ignored *)
let check_flags cmd args =
  match List.find_opt (fun (n, _, _) -> n = cmd) subcommands with
  | None -> () (* unknown subcommand: dispatch reports it *)
  | Some (_, syn, _) ->
    let known = String.split_on_char ' ' (String.map (function '[' | ']' -> ' ' | ch -> ch) syn) in
    List.iter
      (fun a ->
        if String.starts_with ~prefix:"--" a && not (List.mem a known) then
          usage_error "%s: unknown flag %s (usage: reqisc_cli %s)" cmd a syn)
      args

let parse_error (e : Qasm.parse_error) =
  Printf.eprintf "error[parse]: %s\n" (Qasm.parse_error_to_string e);
  exit exit_parse

let solver_error (e : Robust.Err.t) =
  Printf.eprintf "error[%s] %s: %s\n" (Robust.Err.kind e) (Robust.Err.stage e)
    (Robust.Err.to_string e);
  exit (Robust.Err.exit_code e)

(* ---------------------------------------------------------- tracing *)

(* Install the recorder now and write the export files when the process
   exits — via [at_exit], so traces survive error exits too. *)
let install_tracing ~out ~prom =
  let r = Obs.Recorder.start () in
  at_exit (fun () ->
      Obs.Recorder.stop r;
      (match out with
      | None -> ()
      | Some path ->
        Obs.Export.write_chrome_trace path (Obs.Recorder.events r);
        Printf.eprintf "reqisc trace: wrote %s (%d span events)\n%!" path
          (Obs.Recorder.event_count r));
      match prom with
      | None -> ()
      | Some path ->
        let oc = open_out path in
        output_string oc (Obs.Export.prometheus ());
        close_out oc;
        Printf.eprintf "reqisc trace: wrote %s\n%!" path)

(* ------------------------------------------------------------- suite *)

let suite = lazy (Benchmarks.Suite.suite ~big:true ())

let find_bench name =
  match List.find_opt (fun (b : Benchmarks.Suite.bench) -> b.name = name) (Lazy.force suite) with
  | Some b -> b
  | None -> usage_error "unknown benchmark %s (try `reqisc_cli list`)" name

let cmd_list () =
  List.iter
    (fun (cat, bs) ->
      Printf.printf "%-12s %s\n" cat
        (String.concat ", " (List.map (fun (b : Benchmarks.Suite.bench) -> b.name) bs)))
    (Benchmarks.Suite.by_category (Lazy.force suite))

let flag_value args flag =
  let rec go = function
    | a :: b :: _ when a = flag -> Some b
    | _ :: rest -> go rest
    | [] -> None
  in
  go args

let print_pulse_table (instrs : Reqisc.pulse_instruction list) =
  Printf.printf "%-8s %-5s %10s %10s %10s %10s\n" "qubits" "mode" "tau" "A1" "A2" "delta";
  List.iter
    (fun (i : Reqisc.pulse_instruction) ->
      let p = i.pulse in
      let a1, a2 = Microarch.Genashn.amplitudes p in
      Printf.printf "(%d,%d)    %-5s %10.4f %10.4f %10.4f %10.4f\n" (fst i.qubits)
        (snd i.qubits)
        (Microarch.Tau.subscheme_to_string p.Microarch.Genashn.subscheme)
        p.Microarch.Genashn.tau a1 a2 p.Microarch.Genashn.delta)
    instrs

(* per-gate robust synthesis: report every verdict, exit 4 only if some
   gate ended in a hard failure *)
let run_pulses coupling circuit =
  let outcomes = Reqisc.pulse_outcomes coupling circuit in
  let ok =
    List.filter_map
      (fun (o : Reqisc.gate_outcome) ->
        match o.outcome with
        | Robust.Outcome.Solved i | Robust.Outcome.Degraded (i, _) -> Some i
        | Robust.Outcome.Failed _ -> None)
      outcomes
  in
  print_pulse_table ok;
  List.iter
    (fun (o : Reqisc.gate_outcome) ->
      match o.outcome with
      | Robust.Outcome.Degraded (_, i) ->
        Printf.printf "degraded %s: residual %.2e after %d retries (%s)\n"
          (Gate.to_string o.gate) i.Robust.Outcome.residual i.Robust.Outcome.retries
          i.Robust.Outcome.note
      | _ -> ())
    outcomes;
  let failures =
    List.filter_map
      (fun (o : Reqisc.gate_outcome) ->
        match o.outcome with
        | Robust.Outcome.Failed e -> Some (o.gate, e)
        | _ -> None)
      outcomes
  in
  match failures with
  | [] -> ()
  | (g, e) :: _ ->
    List.iter
      (fun (g, e) ->
        Printf.eprintf "error[%s] %s: %s: %s\n" (Robust.Err.kind e) (Robust.Err.stage e)
          (Gate.to_string g) (Robust.Err.to_string e))
      failures;
    ignore g;
    exit (Robust.Err.exit_code e)

(* strict pass-name validation, same discipline as Robust.Fault parsing:
   any unknown name is a usage error (exit 2) listing every known pass *)
let check_pass_name what n =
  if Compiler.Passes.find n = None then
    usage_error "%s: unknown pass %s (known passes: %s)" what n
      (String.concat ", " Compiler.Passes.known_names)

let cmd_passes () =
  Printf.printf "registered passes (pipeline order):\n";
  List.iter
    (fun (name, doc) -> Printf.printf "  %-16s %s\n" name doc)
    (Compiler.Passes.describe ());
  Printf.printf "\nnamed plans:\n";
  List.iter
    (fun mode ->
      let plan = Reqisc.Plan.default mode in
      Printf.printf "  %-16s %s\n" (Reqisc.Plan.name plan)
        (String.concat " -> " (Reqisc.Plan.pass_names plan)))
    [ Reqisc.Eff; Reqisc.Full; Reqisc.Nc ]

let cmd_compile name args =
  let b = find_bench name in
  let mode =
    match flag_value args "--mode" with
    | None -> Compiler.Passes.Eff
    | Some name -> (
      match Compiler.Passes.mode_of_name name with
      | Some mode -> mode
      | None -> usage_error "unknown mode %s (expected eff|full|nc)" name)
  in
  let custom =
    match flag_value args "--passes" with
    | None -> None
    | Some spec ->
      if flag_value args "--mode" <> None then
        usage_error "give either --mode or --passes, not both";
      let names = String.split_on_char ',' spec in
      List.iter (check_pass_name "--passes") names;
      (match Reqisc.Plan.of_names names with
      | Ok plan -> Some plan
      | Error e -> usage_error "--passes: %s" (Robust.Err.to_string e))
  in
  (* target-ISA lowering: --isa retargets the default plan of the mode
     (it replaces mirroring with the [to_can; lower_isa] tail, so it is
     exclusive with an explicit --passes plan) *)
  let isa_target =
    match flag_value args "--isa" with
    | None -> None
    | Some name ->
      if custom <> None then usage_error "give either --passes or --isa, not both";
      (match Isa.find name with
      | Some t -> Some t
      | None ->
        usage_error "unknown isa %s (known targets: %s)" name
          (String.concat ", " Isa.known_names))
  in
  let plan = Compiler.Passes.resolve_plan ~mode ~plan:custom ~isa:isa_target in
  let start_from = flag_value args "--start-from" in
  let stop_after = flag_value args "--stop-after" in
  Option.iter (check_pass_name "--start-from") start_from;
  Option.iter (check_pass_name "--stop-after") stop_after;
  let custom_plan =
    flag_value args "--passes" <> None || start_from <> None || stop_after <> None
    || isa_target <> None
  in
  let rng = Numerics.Rng.create 1L in
  let input = Compiler.Pass.program_to_cnot_input b.program in
  let base = Compiler.Metrics.report Compiler.Metrics.Cnot_isa input in
  Printf.printf "%s (%s), %d qubits\n" b.name b.category input.Circuit.n;
  Printf.printf "input (CNOT ISA):   %s\n"
    (Format.asprintf "%a" Compiler.Metrics.pp_report base);
  let out, stats =
    match
      Compiler.Passes.compile_plan ?start_from ?stop_after ~plan rng b.program
    with
    | Ok (out, stats) -> (out, stats)
    | Error e -> solver_error e
  in
  let isa =
    match isa_target with
    | Some t -> Compiler.Metrics.Target t
    | None -> Compiler.Metrics.Su4_isa (Microarch.Coupling.xy ~g:1.0)
  in
  let r = Compiler.Metrics.report isa out.Compiler.Passes.circuit in
  let label =
    match isa_target with
    | Some t -> Printf.sprintf "isa %s" t.Isa.name
    | None ->
      if custom_plan then Printf.sprintf "plan %s" (Reqisc.Plan.name plan)
      else Compiler.Passes.mode_to_string mode
  in
  Printf.printf "%s:  %s  (mirrored %d)\n" label
    (Format.asprintf "%a" Compiler.Metrics.pp_report r)
    out.Compiler.Passes.mirrored;
  (* the timed executable format gets its schedule printed: explicit
     pulse slots with start times and cycle-quantized durations *)
  (match isa_target with
  | Some t when t.Isa.name = "eqasm" ->
    let lines = String.split_on_char '\n' (Isa.eqasm_text t out.Compiler.Passes.circuit) in
    let limit = 14 in
    List.iteri (fun i l -> if i < limit && l <> "" then print_endline l) lines;
    let extra = List.length lines - limit in
    if extra > 0 then Printf.printf "  ... (%d more slots)\n" extra
  | _ -> ());
  if custom_plan then begin
    Printf.printf "per-pass:\n";
    List.iter
      (fun (s : Compiler.Passes.pass_stat) ->
        if s.ran then
          Printf.printf "  %-16s -> %-8s #2Q=%-4d depth=%-4d %.2f ms\n" s.pass
            s.form s.count_2q s.depth_2q (s.wall_s *. 1e3)
        else Printf.printf "  %-16s (skipped: not applicable to %s IR)\n" s.pass s.form)
      stats
  end;
  (match flag_value args "--route" with
  | Some kind ->
    let n = out.Compiler.Passes.circuit.Circuit.n in
    let topo =
      if kind = "grid" then begin
        let cols = int_of_float (Float.ceil (sqrt (float_of_int n))) in
        Compiler.Routing.grid ~rows:((n + cols - 1) / cols) ~cols
      end
      else if kind = "chain" then Compiler.Routing.chain n
      else usage_error "unknown topology %s (expected chain|grid)" kind
    in
    let routed =
      match Reqisc.route ~mirror:true topo out.Compiler.Passes.circuit with
      | Ok routed -> routed
      | Error e -> solver_error e
    in
    Printf.printf "routed (%s):        #2Q=%d (+%d swaps, %d absorbed)\n" kind
      (Circuit.count_2q routed.Compiler.Routing.circuit)
      routed.Compiler.Routing.swaps_inserted routed.Compiler.Routing.swaps_absorbed
  | None -> ());
  if List.mem "--pulses" args then
    run_pulses (Microarch.Coupling.xy ~g:1.0) out.Compiler.Passes.circuit

let cmd_pulse name args =
  let gate =
    match Quantum.Gates.of_name name with
    | Some gate -> gate
    | None ->
      usage_error "unknown gate %s (expected %s)" name
        (String.concat "|" Quantum.Gates.named_2q)
  in
  let coupling =
    match flag_value args "--coupling" with
    | Some "xx" -> Microarch.Coupling.xx ~g:1.0
    | Some "xy" | None -> Microarch.Coupling.xy ~g:1.0
    | Some other -> usage_error "unknown coupling %s (expected xy|xx)" other
  in
  let finish (r : Microarch.Genashn.result) =
    let p = r.Microarch.Genashn.pulse in
    Printf.printf "gate %s under %s\n" name
      (Format.asprintf "%a" Microarch.Coupling.pp coupling);
    Printf.printf "class   %s\n" (Weyl.Coords.to_string r.Microarch.Genashn.coords);
    Printf.printf "mode    %s\n" (Microarch.Tau.subscheme_to_string p.Microarch.Genashn.subscheme);
    Printf.printf "tau     %.6f /g\n" p.Microarch.Genashn.tau;
    let a1, a2 = Microarch.Genashn.amplitudes p in
    Printf.printf "A1      %.6f\n" a1;
    Printf.printf "A2      %.6f\n" a2;
    Printf.printf "delta   %.6f\n" p.Microarch.Genashn.delta;
    Printf.printf "error   %.2e\n"
      (Numerics.Mat.frobenius_dist (Microarch.Genashn.reconstruct r) gate)
  in
  match Microarch.Genashn.solve_r coupling (Gate.su4 0 1 gate) with
  | Robust.Outcome.Solved r -> finish r
  | Robust.Outcome.Degraded (r, i) ->
    finish r;
    Printf.printf "warning: degraded solve — residual %.2e after %d retries (%s)\n"
      i.Robust.Outcome.residual i.Robust.Outcome.retries i.Robust.Outcome.note
  | Robust.Outcome.Failed e -> solver_error e

let cmd_qasm path args =
  if not (Sys.file_exists path) then usage_error "no such file %s" path;
  match Qasm.parse_file path with
  | Error e -> parse_error e
  | Ok c ->
    Printf.printf "%s: %d qubits, %d gates (#2Q=%d)\n" path c.Circuit.n
      (List.length c.Circuit.gates) (Circuit.count_2q c);
    if List.mem "--pulses" args then run_pulses (Microarch.Coupling.xy ~g:1.0) c

let int_flag args flag default =
  match flag_value args flag with
  | None -> default
  | Some v -> (
    match int_of_string_opt v with
    | Some n when n > 0 -> n
    | _ -> usage_error "%s expects a positive integer, got %S" flag v)

let nonneg_int_flag args flag default =
  match flag_value args flag with
  | None -> default
  | Some v -> (
    match int_of_string_opt v with
    | Some n when n >= 0 -> n
    | _ -> usage_error "%s expects a non-negative integer, got %S" flag v)

let float_flag args flag default =
  match flag_value args flag with
  | None -> default
  | Some v -> (
    match float_of_string_opt v with
    | Some f when f >= 0.0 -> f
    | _ -> usage_error "%s expects a non-negative number, got %S" flag v)

let cmd_serve args =
  let config =
    {
      Serve.Server.default_config with
      Serve.Server.cache_path = flag_value args "--cache";
      workers = int_flag args "--workers" 0;
      cache_capacity = int_flag args "--capacity" 4096;
    }
  in
  let workers_str =
    if config.Serve.Server.workers = 0 then "auto"
    else string_of_int config.Serve.Server.workers
  in
  let cache_str = Option.value ~default:"(none)" config.Serve.Server.cache_path in
  match flag_value args "--listen" with
  | None -> (
    Printf.eprintf "reqisc serve: stdio, %s workers, cache %s\n%!" workers_str cache_str;
    match Serve.Server.run ~config stdin stdout with
    | Ok s ->
      Printf.eprintf "reqisc serve: drained — %d responses (%d errors) in %.2fs\n%!"
        s.Serve.Server.served s.Serve.Server.errors s.Serve.Server.elapsed
    | Error e -> usage_error "cannot open cache: %s" e)
  | Some spec -> (
    let addr =
      match Serve.Transport.parse_addr spec with
      | Ok a -> a
      | Error e -> usage_error "--listen: %s" e
    in
    let tconfig =
      {
        Serve.Transport.server = config;
        max_connections = int_flag args "--max-conns" 64;
        idle_timeout = float_flag args "--idle-timeout" 300.0;
        max_line_bytes = int_flag args "--max-line" Serve.Protocol.max_line_bytes;
        max_write_buffer = Serve.Transport.default_config.Serve.Transport.max_write_buffer;
        max_queue_depth =
          nonneg_int_flag args "--max-queue"
            Serve.Transport.default_config.Serve.Transport.max_queue_depth;
      }
    in
    let ready a =
      Printf.eprintf "reqisc serve: listening on %s, %s workers, cache %s\n%!"
        (Serve.Transport.addr_to_string a)
        workers_str cache_str
    in
    match Serve.Transport.serve ~config:tconfig ~ready addr with
    | Ok s ->
      Printf.eprintf
        "reqisc serve: drained — %d responses (%d errors) over %d connections (%d refused) in %.2fs\n%!"
        s.Serve.Transport.served s.Serve.Transport.errors s.Serve.Transport.connections
        s.Serve.Transport.refused s.Serve.Transport.elapsed
    | Error e -> usage_error "serve --listen: %s" e)

(* one request per line (argv, or stdin when no REQUEST args): responses
   print to stdout in request order; transport failures exit 4 with a
   typed error on stderr *)
let cmd_client args =
  let addr =
    match flag_value args "--connect" with
    | None -> usage_error "client needs --connect tcp:HOST:PORT|unix:PATH"
    | Some spec -> (
      match Serve.Transport.parse_addr spec with
      | Ok a -> a
      | Error e -> usage_error "--connect: %s" e)
  in
  let retries = int_flag args "--retries" 3 in
  let backoff = float_flag args "--backoff" 0.05 in
  let jitter = float_flag args "--jitter" 0.0 in
  let frames =
    match flag_value args "--frames" with
    | None | Some "json" -> Serve.Client.Json_lines
    | Some "binary" -> Serve.Client.Binary
    | Some other -> usage_error "--frames expects json|binary, got %S" other
  in
  let recv_timeout =
    match float_flag args "--timeout" 0.0 with 0.0 -> None | s -> Some s
  in
  let client_error e =
    Printf.eprintf "error[%s]: %s\n" (Serve.Client.error_kind e)
      (Serve.Client.error_to_string e);
    exit 4
  in
  (* positional args are request lines; skip flag/value pairs *)
  let value_flags =
    [ "--connect"; "--retries"; "--backoff"; "--jitter"; "--frames"; "--timeout" ]
  in
  let requests =
    let rec go acc = function
      | f :: _ :: rest when List.mem f value_flags -> go acc rest
      | a :: rest -> go (a :: acc) rest
      | [] -> List.rev acc
    in
    go [] args
  in
  let t =
    match Serve.Client.connect ~retries ~backoff ~jitter ~frames ?recv_timeout addr with
    | Ok t -> t
    | Error e -> client_error e
  in
  let run_line line =
    if String.trim line <> "" then begin
      let body =
        match Robust.Json.parse line with
        | Ok (Robust.Json.Obj _ as body) -> body
        | Ok _ -> usage_error "request must be a JSON object: %s" line
        | Error e -> usage_error "request is not JSON (%s): %s" e line
      in
      match Serve.Client.request t body with
      | Ok json -> print_endline (Robust.Json.to_string json)
      | Error (Serve.Client.Server_error _ as e) ->
        (* the server answered; surface the typed error but keep going *)
        Printf.eprintf "error[%s]: %s\n" (Serve.Client.error_kind e)
          (Serve.Client.error_to_string e)
      | Error e ->
        Serve.Client.close t;
        client_error e
    end
  in
  (match requests with
  | [] -> (
    try
      while true do
        run_line (input_line stdin)
      done
    with End_of_file -> ())
  | lines -> List.iter run_line lines);
  Serve.Client.close t

let with_cache_file sub args f =
  match flag_value args "--cache" with
  | None -> usage_error "cache %s needs --cache FILE" sub
  | Some path -> (
    if not (Sys.file_exists path) then usage_error "no such cache file %s" path;
    match Cache.create ~path () with
    | Error e -> usage_error "cannot open cache: %s" e
    | Ok c ->
      f c;
      Cache.close c)

(* stats_json includes the on-disk view — file_records (physical frames,
   duplicates included) vs disk_records (distinct keys) and disk_bytes —
   so an operator can see how much a compaction would reclaim *)
let cmd_cache_stats args =
  with_cache_file "stats" args (fun c ->
      print_endline (Robust.Json.to_string (Cache.stats_json c)))

let cmd_cache_compact args =
  with_cache_file "compact" args (fun c ->
      let before = Cache.stats c in
      match Cache.compact c with
      | Error e -> usage_error "compact failed: %s" e
      | Ok bytes ->
        let n v = Robust.Json.Num (float_of_int v) in
        print_endline
          Robust.Json.(
            to_string
              (Obj
                 [
                   ("compacted", Bool true); ("records", n before.Cache.disk_records);
                   ("dropped_records", n (before.Cache.file_records - before.Cache.disk_records));
                   ("bytes", n bytes); ("reclaimed_bytes", n (before.Cache.disk_bytes - bytes));
                 ])))

(* ---------------------------------------------------------- dispatch *)

let rec dispatch args =
  (match args with
  | "trace" :: _ -> () (* checks its own flags, then dispatches the wrapped command *)
  | cmd :: rest when not (help_requested rest) -> check_flags cmd rest
  | _ -> ());
  match args with
  | cmd :: rest when help_requested rest -> print_subcommand_help cmd
  | "list" :: _ -> cmd_list ()
  | "compile" :: name :: rest -> cmd_compile name rest
  | [ "compile" ] -> usage_error "compile needs a benchmark name"
  | "passes" :: _ -> cmd_passes ()
  | "pulse" :: name :: rest -> cmd_pulse name rest
  | [ "pulse" ] -> usage_error "pulse needs a gate name"
  | "qasm" :: path :: rest -> cmd_qasm path rest
  | [ "qasm" ] -> usage_error "qasm needs a file"
  | "serve" :: rest -> cmd_serve rest
  | "client" :: rest -> cmd_client rest
  | "cache" :: "stats" :: rest -> cmd_cache_stats rest
  | "cache" :: "compact" :: rest -> cmd_cache_compact rest
  | "cache" :: _ -> usage_error "cache supports: stats|compact --cache FILE"
  | "trace" :: rest -> cmd_trace rest
  | cmd :: _ -> usage_error "unknown subcommand %s" cmd
  | [] ->
    print_usage stderr;
    exit exit_usage

and cmd_trace args =
  (* flags before the wrapped subcommand; everything after the first
     non-flag token belongs to it *)
  let rec parse out prom = function
    | "--out" :: path :: rest -> parse (Some path) prom rest
    | "--prom" :: path :: rest -> parse out (Some path) rest
    | [] -> usage_error "trace needs a subcommand to run"
    | first :: _ as rest ->
      check_flags "trace" [ first ];
      (out, prom, rest)
  in
  let out, prom, rest = parse None None args in
  (* with neither flag given, default to a Chrome trace next to the cwd *)
  let out = match (out, prom) with None, None -> Some "trace.json" | _ -> out in
  if Obs.Sink.enabled () then
    usage_error "trace: a sink is already installed (REQISC_TRACE is set?)";
  install_tracing ~out ~prom;
  dispatch rest

let () =
  (match Sys.getenv_opt "REQISC_TRACE" with
  | Some path when path <> "" && not (Obs.Sink.enabled ()) ->
    install_tracing ~out:(Some path) ~prom:None
  | _ -> ());
  match Array.to_list Sys.argv with
  | _ :: [] ->
    print_usage stderr;
    exit exit_usage
  | _ :: args when help_requested [ List.hd args ] || List.hd args = "help" ->
    print_usage stdout
  | _ :: args -> dispatch args
  | [] ->
    print_usage stderr;
    exit exit_usage
