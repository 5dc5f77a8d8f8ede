(* lib/obs: histogram bucket edges, span nesting and exception unwind,
   the disabled-sink no-op contract, recorder ring bounds, and golden
   Chrome-trace / Prometheus exports (the Chrome trace must also load in
   Robust.Json, the same parser the server uses), and a recorded
   compile whose trace is well formed. *)

let contains s sub =
  let n = String.length sub and len = String.length s in
  let rec go i = i + n <= len && (String.sub s i n = sub || go (i + 1)) in
  go 0

let clean () =
  Obs.Sink.uninstall ();
  Obs.Hist.reset ();
  Robust.Counters.reset ()

(* a sink that discards events: enables the gated path (Span timestamps)
   without buffering anything *)
let null_sink = { Obs.Sink.on_span = (fun _ -> ()) }

(* ------------------------------------------------------- bucket edges *)

let test_bucket_edges () =
  let lo = 1 lsl Obs.Hist.first_exp in
  Alcotest.(check int) "first bound" lo (Obs.Hist.bucket_upper_ns 0);
  (* inclusive upper bounds, Prometheus-style: d = bound stays in the
     bucket, d = bound + 1 spills into the next *)
  Alcotest.(check int) "zero duration" 0 (Obs.Hist.bucket_index 0);
  Alcotest.(check int) "negative clamps" 0 (Obs.Hist.bucket_index (-5));
  Alcotest.(check int) "1ns" 0 (Obs.Hist.bucket_index 1);
  Alcotest.(check int) "at first bound" 0 (Obs.Hist.bucket_index lo);
  Alcotest.(check int) "just past first bound" 1 (Obs.Hist.bucket_index (lo + 1));
  for j = 0 to Obs.Hist.finite_buckets - 1 do
    let b = Obs.Hist.bucket_upper_ns j in
    Alcotest.(check int) (Printf.sprintf "bound %d inclusive" j) j
      (Obs.Hist.bucket_index b);
    Alcotest.(check int)
      (Printf.sprintf "bound %d + 1 spills" j)
      (j + 1)
      (Obs.Hist.bucket_index (b + 1))
  done;
  Alcotest.(check int) "max_int overflows" Obs.Hist.finite_buckets
    (Obs.Hist.bucket_index max_int);
  Alcotest.check_raises "overflow bucket has no bound"
    (Invalid_argument "Obs.Hist.bucket_upper_ns")
    (fun () -> ignore (Obs.Hist.bucket_upper_ns Obs.Hist.finite_buckets))

let test_hist_observe_quantile () =
  clean ();
  let lo = 1 lsl Obs.Hist.first_exp in
  Obs.Hist.observe ~stage:"t" ~name:"x" (lo - 24);
  Obs.Hist.observe ~stage:"t" ~name:"x" (lo + 476);
  Obs.Hist.observe ~stage:"t" ~name:"x" ((2 * lo) + 952);
  match Obs.Hist.snapshot () with
  | [ s ] ->
    Alcotest.(check string) "stage" "t" s.Obs.Hist.stage;
    Alcotest.(check string) "name" "x" s.Obs.Hist.name;
    Alcotest.(check int) "count" 3 s.Obs.Hist.count;
    Alcotest.(check int) "sum" ((4 * lo) + 1404) s.Obs.Hist.sum_ns;
    Alcotest.(check int) "counts length"
      (Obs.Hist.finite_buckets + 1)
      (Array.length s.Obs.Hist.counts);
    Alcotest.(check int) "bucket 0" 1 s.Obs.Hist.counts.(0);
    Alcotest.(check int) "bucket 1" 1 s.Obs.Hist.counts.(1);
    Alcotest.(check int) "bucket 2" 1 s.Obs.Hist.counts.(2);
    (* quantile reports the inclusive bound of the bucket where the
       cumulative count crosses q * count *)
    Alcotest.(check (float 0.0)) "p50" (float_of_int (2 * lo)) (Obs.Hist.quantile s 0.5);
    Alcotest.(check (float 0.0)) "p100" (float_of_int (4 * lo)) (Obs.Hist.quantile s 1.0);
    clean ()
  | series ->
    Alcotest.failf "expected one series, got %d" (List.length series)

(* ------------------------------------------------ span nesting/unwind *)

let test_span_nesting () =
  clean ();
  let (), r =
    Obs.Recorder.with_recorder (fun () ->
        Obs.Span.with_ ~stage:"t" ~name:"outer" (fun () ->
            Alcotest.(check int) "depth inside outer" 1 (Obs.Span.depth ());
            Obs.Span.with_ ~stage:"t" ~name:"inner" (fun () ->
                Alcotest.(check int) "depth inside inner" 2 (Obs.Span.depth ())));
        Alcotest.(check int) "depth unwound" 0 (Obs.Span.depth ()))
  in
  (match Obs.Recorder.events r with
  | [ inner; outer ] ->
    (* inner completes first, so the ring holds it first *)
    Alcotest.(check string) "inner name" "inner" inner.Obs.Sink.name;
    Alcotest.(check int) "inner depth" 1 inner.Obs.Sink.depth;
    Alcotest.(check string) "outer name" "outer" outer.Obs.Sink.name;
    Alcotest.(check int) "outer depth" 0 outer.Obs.Sink.depth;
    Alcotest.(check bool) "outer starts first" true
      (outer.Obs.Sink.t0_ns <= inner.Obs.Sink.t0_ns);
    Alcotest.(check bool) "durations non-negative" true
      (inner.Obs.Sink.dur_ns >= 0 && outer.Obs.Sink.dur_ns >= 0)
  | evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs));
  clean ()

let test_span_unwind_on_exception () =
  clean ();
  let (), r =
    Obs.Recorder.with_recorder (fun () ->
        (try Obs.Span.with_ ~stage:"t" ~name:"raiser" (fun () -> failwith "boom")
         with Failure _ -> ());
        Alcotest.(check int) "depth restored after raise" 0 (Obs.Span.depth ());
        (* the depth slot is reusable after the unwind *)
        Obs.Span.with_ ~stage:"t" ~name:"after" (fun () ->
            Alcotest.(check int) "depth after raise" 1 (Obs.Span.depth ())))
  in
  let names = List.map (fun e -> e.Obs.Sink.name) (Obs.Recorder.events r) in
  Alcotest.(check (list string)) "raising span still emitted" [ "raiser"; "after" ]
    names;
  clean ()

(* --------------------------------------------------- disabled = no-op *)

let test_disabled_noop () =
  clean ();
  Alcotest.(check bool) "no sink" false (Obs.Sink.enabled ());
  Alcotest.(check int) "now_ns sentinel" 0 (Obs.Span.now_ns ());
  (* emit with the sentinel t0 must not fabricate a span even if a sink
     appears later *)
  Obs.Span.emit ~stage:"t" ~name:"ghost" ~t0:0;
  Alcotest.(check int) "with_ is transparent" 41
    (Obs.Span.with_ ~stage:"t" ~name:"quiet" (fun () -> 41));
  Alcotest.(check int) "no series recorded" 0 (List.length (Obs.Hist.snapshot ()));
  Alcotest.(check string) "prometheus empty" "" (Obs.Export.prometheus ())

(* ------------------------------------------------------ recorder ring *)

let test_recorder_ring () =
  clean ();
  let (), r =
    Obs.Recorder.with_recorder ~capacity:4 (fun () ->
        for i = 1 to 6 do
          Obs.Span.with_ ~stage:"t" ~name:(Printf.sprintf "s%d" i) (fun () -> ())
        done)
  in
  Alcotest.(check int) "event_count is total pushed" 6 (Obs.Recorder.event_count r);
  Alcotest.(check int) "dropped oldest" 2 (Obs.Recorder.dropped r);
  let names = List.map (fun e -> e.Obs.Sink.name) (Obs.Recorder.events r) in
  Alcotest.(check int) "ring keeps newest" 4 (List.length names);
  Alcotest.(check (list string)) "oldest-first order" [ "s3"; "s4"; "s5"; "s6" ] names;
  (* aggregation is not bounded by the ring *)
  (match Obs.Hist.snapshot () with
  | series ->
    let total = List.fold_left (fun acc s -> acc + s.Obs.Hist.count) 0 series in
    Alcotest.(check int) "hist saw all 6" 6 total);
  clean ()

let test_with_recorder_restores_sink () =
  clean ();
  Obs.Sink.install null_sink;
  let v, _ = Obs.Recorder.with_recorder (fun () -> 7) in
  Alcotest.(check int) "result" 7 v;
  Alcotest.(check bool) "previous sink restored" true
    (match Obs.Sink.installed () with
    | Some s -> s == null_sink
    | None -> false);
  clean ()

(* ---------------------------------------------------- golden exports *)

let test_chrome_trace_golden () =
  let ev stage name t0 dur depth domain =
    { Obs.Sink.stage; name; t0_ns = t0; dur_ns = dur; depth; domain }
  in
  let out =
    Robust.Json.to_string
      (Obs.Export.chrome_trace [ ev "s" "a" 1000 2500 0 0; ev "s" "b" 2000 500 1 3 ])
  in
  (* byte-exact: ts is rebased to the earliest event, ns -> us *)
  let expected =
    "{\"traceEvents\":[{\"name\":\"a\",\"cat\":\"s\",\"ph\":\"X\",\"ts\":0,\
     \"dur\":2.5,\"pid\":1,\"tid\":0,\"args\":{\"depth\":0}},{\"name\":\"b\",\
     \"cat\":\"s\",\"ph\":\"X\",\"ts\":1,\"dur\":0.5,\"pid\":1,\"tid\":3,\
     \"args\":{\"depth\":1}}],\"displayTimeUnit\":\"ms\"}"
  in
  Alcotest.(check string) "golden chrome trace" expected out;
  (* and it must load in the JSON parser the server ships *)
  match Robust.Json.parse out with
  | Error e -> Alcotest.failf "chrome trace does not parse: %s" e
  | Ok json -> (
    match Robust.Json.mem_arr "traceEvents" json with
    | Some [ a; b ] ->
      Alcotest.(check bool) "event a name" true (Robust.Json.mem_str "name" a = Some "a");
      Alcotest.(check bool) "event b ph" true (Robust.Json.mem_str "ph" b = Some "X")
    | _ -> Alcotest.fail "expected 2 traceEvents")

let test_chrome_trace_escaping () =
  let out =
    Robust.Json.to_string
      (Obs.Export.chrome_trace
         [ { Obs.Sink.stage = "s\"t"; name = "a\nb"; t0_ns = 0; dur_ns = 1; depth = 0;
             domain = 0 } ])
  in
  Alcotest.(check bool) "escaped quote" true (contains out "\"cat\":\"s\\\"t\"");
  Alcotest.(check bool) "escaped newline" true (contains out "\"name\":\"a\\nb\"");
  match Robust.Json.parse out with
  | Error e -> Alcotest.failf "escaped trace does not parse: %s" e
  | Ok _ -> ()

(* a real compile recorded end to end: the rendered trace parses and
   every event is a complete span with a name, ph "X", ts and dur *)
let test_chrome_trace_of_compile () =
  clean ();
  let b = List.hd (Benchmarks.Suite.suite ()) in
  let out, r =
    Obs.Recorder.with_recorder (fun () ->
        Compiler.Passes.compile_plan
          ~plan:(Compiler.Passes.plan_of_mode Compiler.Passes.Eff)
          (Numerics.Rng.create 1L) b.Benchmarks.Suite.program)
  in
  Alcotest.(check bool) "compile ok" true (Result.is_ok out);
  let trace = Robust.Json.to_string (Obs.Export.chrome_trace (Obs.Recorder.events r)) in
  clean ();
  match Robust.Json.parse trace with
  | Error e -> Alcotest.failf "recorded trace does not parse: %s" e
  | Ok json -> (
    match Robust.Json.mem_arr "traceEvents" json with
    | None | Some [] -> Alcotest.fail "no traceEvents"
    | Some evs ->
      List.iter
        (fun e ->
          Alcotest.(check bool) "name" true (Robust.Json.mem_str "name" e <> None);
          Alcotest.(check (option string)) "ph" (Some "X") (Robust.Json.mem_str "ph" e);
          Alcotest.(check bool) "ts" true (Robust.Json.mem_num "ts" e <> None);
          Alcotest.(check bool) "dur" true (Robust.Json.mem_num "dur" e <> None))
        evs)

let test_prometheus_golden () =
  clean ();
  (* no sink installed: the counter registry counts regardless *)
  let lo = 1 lsl Obs.Hist.first_exp in
  Obs.Hist.observe ~stage:"t" ~name:"x" lo;
  Obs.Hist.observe ~stage:"t" ~name:"x" (lo + 476);
  Robust.Counters.incr ~stage:"t" "c";
  Robust.Counters.add ~stage:"t" "c" 2;
  Robust.Counters.set_gauge ~stage:"t" "g" 2.5;
  (* label values escape backslash, quote and newline, and nothing else *)
  Robust.Counters.incr ~stage:"q\"b\\n\nt\t" "c";
  let out = Obs.Export.prometheus () in
  clean ();
  List.iter
    (fun line ->
      Alcotest.(check bool) (Printf.sprintf "has %S" line) true (contains out line))
    [ "# TYPE reqisc_span_duration_seconds histogram";
      (* cumulative counts with inclusive le bounds *)
      "reqisc_span_duration_seconds_bucket{stage=\"t\",name=\"x\",le=\"1.024e-06\"} 1";
      "reqisc_span_duration_seconds_bucket{stage=\"t\",name=\"x\",le=\"2.048e-06\"} 2";
      "reqisc_span_duration_seconds_bucket{stage=\"t\",name=\"x\",le=\"+Inf\"} 2";
      "reqisc_span_duration_seconds_sum{stage=\"t\",name=\"x\"} 2.524e-06";
      "reqisc_span_duration_seconds_count{stage=\"t\",name=\"x\"} 2";
      "# TYPE reqisc_counter_total counter";
      "reqisc_counter_total{stage=\"t\",name=\"c\"} 3";
      "reqisc_counter_total{stage=\"q\\\"b\\\\n\\nt\t\",name=\"c\"} 1";
      "# TYPE reqisc_gauge gauge";
      "reqisc_gauge{stage=\"t\",name=\"g\"} 2.5" ]

let test_snapshot_json_parses () =
  clean ();
  Obs.Hist.observe ~stage:"t" ~name:"x" 5000;
  Robust.Counters.incr ~stage:"t" "c";
  Robust.Counters.set_gauge ~stage:"t" "g" 1.5;
  let out = Robust.Json.to_string (Obs.Export.snapshot_json ()) in
  clean ();
  match Robust.Json.parse out with
  | Error e -> Alcotest.failf "snapshot does not parse: %s" e
  | Ok json ->
    (match Robust.Json.member "spans" json with
    | Some (Robust.Json.Obj [ (key, span) ]) ->
      Alcotest.(check string) "span key" "t.x" key;
      Alcotest.(check bool) "span count" true (Robust.Json.mem_num "count" span = Some 1.0)
    | _ -> Alcotest.fail "expected one span entry");
    (* counters are the server's top-level [stats] "counters" object,
       not repeated here *)
    Alcotest.(check bool) "no counters copy" true (Robust.Json.member "counters" json = None);
    match Robust.Json.member "gauges" json with
    | Some (Robust.Json.Obj [ (key, Robust.Json.Num v) ]) ->
      Alcotest.(check string) "gauge key" "t.g" key;
      Alcotest.(check (float 0.0)) "gauge value" 1.5 v
    | _ -> Alcotest.fail "expected one gauge entry"

let () =
  Alcotest.run "obs"
    [
      ( "hist",
        [
          Alcotest.test_case "bucket edges" `Quick test_bucket_edges;
          Alcotest.test_case "observe + quantile" `Quick test_hist_observe_quantile;
        ] );
      ( "span",
        [
          Alcotest.test_case "nesting depths" `Quick test_span_nesting;
          Alcotest.test_case "unwind on exception" `Quick test_span_unwind_on_exception;
        ] );
      ( "sink",
        [
          Alcotest.test_case "disabled is a no-op" `Quick test_disabled_noop;
        ] );
      ( "recorder",
        [
          Alcotest.test_case "bounded ring" `Quick test_recorder_ring;
          Alcotest.test_case "restores previous sink" `Quick
            test_with_recorder_restores_sink;
        ] );
      ( "export",
        [
          Alcotest.test_case "chrome trace golden" `Quick test_chrome_trace_golden;
          Alcotest.test_case "chrome trace escaping" `Quick test_chrome_trace_escaping;
          Alcotest.test_case "chrome trace of a compile" `Quick test_chrome_trace_of_compile;
          Alcotest.test_case "prometheus golden" `Quick test_prometheus_golden;
          Alcotest.test_case "snapshot json parses" `Quick test_snapshot_json_parses;
        ] );
    ]
