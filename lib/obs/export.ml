module Json = Robust.Json

let int n = Json.Num (float_of_int n)

(* ------------------------------------------------------ chrome tracing *)

let chrome_trace (events : Sink.span_event list) =
  let t_min =
    List.fold_left (fun acc (e : Sink.span_event) -> min acc e.Sink.t0_ns) max_int events
  in
  let us ns = Json.Num (float_of_int ns /. 1e3) in
  let event (e : Sink.span_event) =
    Json.Obj
      [
        ("name", Json.Str e.Sink.name); ("cat", Json.Str e.Sink.stage); ("ph", Json.Str "X");
        ("ts", us (e.Sink.t0_ns - t_min)); ("dur", us e.Sink.dur_ns);
        ("pid", int 1); ("tid", int e.Sink.domain);
        ("args", Json.Obj [ ("depth", int e.Sink.depth) ]);
      ]
  in
  Json.Obj
    [ ("traceEvents", Json.Arr (List.map event events)); ("displayTimeUnit", Json.Str "ms") ]

let write_chrome_trace path events =
  let oc = open_out path in
  output_string oc (Json.to_string (chrome_trace events));
  output_char oc '\n';
  close_out oc

(* --------------------------------------------------- prometheus text *)

let seconds_of_ns ns = float_of_int ns /. 1e9

(* a label value in the text exposition format admits only three escapes
   (backslash, double quote, newline); every other byte goes through *)
let label s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let prometheus () =
  let b = Buffer.create 4096 in
  let bpf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let hists = Hist.snapshot () in
  if hists <> [] then
    bpf "# TYPE reqisc_span_duration_seconds histogram\n";
  List.iter
    (fun (s : Hist.series) ->
      let cumulative = ref 0 in
      Array.iteri
        (fun j n ->
          cumulative := !cumulative + n;
          let le =
            if j >= Hist.finite_buckets then "+Inf"
            else Printf.sprintf "%g" (seconds_of_ns (Hist.bucket_upper_ns j))
          in
          bpf "reqisc_span_duration_seconds_bucket{stage=%s,name=%s,le=\"%s\"} %d\n"
            (label s.Hist.stage) (label s.Hist.name) le !cumulative)
        s.Hist.counts;
      bpf "reqisc_span_duration_seconds_sum{stage=%s,name=%s} %.9g\n"
        (label s.Hist.stage) (label s.Hist.name) (seconds_of_ns s.Hist.sum_ns);
      bpf "reqisc_span_duration_seconds_count{stage=%s,name=%s} %d\n"
        (label s.Hist.stage) (label s.Hist.name) s.Hist.count)
    hists;
  let counters = Robust.Counters.snapshot () in
  if counters <> [] then bpf "# TYPE reqisc_counter_total counter\n";
  List.iter
    (fun (stage, cs) ->
      List.iter
        (fun (name, v) ->
          bpf "reqisc_counter_total{stage=%s,name=%s} %d\n" (label stage) (label name) v)
        cs)
    counters;
  let gauges = Robust.Counters.gauges () in
  if gauges <> [] then bpf "# TYPE reqisc_gauge gauge\n";
  List.iter
    (fun (stage, name, v) ->
      bpf "reqisc_gauge{stage=%s,name=%s} %g\n" (label stage) (label name) v)
    gauges;
  Buffer.contents b

(* ------------------------------------------------------ json snapshot *)

let snapshot_json () =
  let seconds ns = Json.Num (seconds_of_ns ns) in
  let span (s : Hist.series) =
    let q p = seconds (int_of_float (Hist.quantile s p)) in
    ( s.Hist.stage ^ "." ^ s.Hist.name,
      Json.Obj
        [
          ("count", int s.Hist.count); ("sum_seconds", seconds s.Hist.sum_ns);
          ("p50_seconds", q 0.5); ("p99_seconds", q 0.99);
        ] )
  in
  Json.Obj
    [
      ("spans", Json.Obj (List.map span (Hist.snapshot ())));
      ( "gauges",
        Json.Obj
          (List.map
             (fun (stage, name, v) -> (stage ^ "." ^ name, Json.Num v))
             (Robust.Counters.gauges ())) );
    ]
