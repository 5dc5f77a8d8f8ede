(* JSON string escaping (RFC 8259 minimal set; stage/name strings are
   ASCII identifiers, but be correct anyway). *)
let escape s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* ------------------------------------------------------ chrome tracing *)

let chrome_trace (events : Sink.span_event list) =
  let t_min =
    List.fold_left (fun acc (e : Sink.span_event) -> min acc e.Sink.t0_ns) max_int events
  in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"traceEvents\":[";
  List.iteri
    (fun i (e : Sink.span_event) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\
            \"tid\":%d,\"args\":{\"depth\":%d}}"
           (escape e.Sink.name) (escape e.Sink.stage)
           (float_of_int (e.Sink.t0_ns - t_min) /. 1e3)
           (float_of_int e.Sink.dur_ns /. 1e3)
           e.Sink.domain e.Sink.depth))
    events;
  Buffer.add_string b "],\"displayTimeUnit\":\"ms\"}";
  Buffer.contents b

let write_chrome_trace path events =
  let oc = open_out path in
  output_string oc (chrome_trace events);
  output_char oc '\n';
  close_out oc

(* --------------------------------------------------- prometheus text *)

let seconds_of_ns ns = float_of_int ns /. 1e9

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
            (escape s.Hist.stage) (escape s.Hist.name) le !cumulative)
        s.Hist.counts;
      bpf "reqisc_span_duration_seconds_sum{stage=%s,name=%s} %.9g\n"
        (escape s.Hist.stage) (escape s.Hist.name) (seconds_of_ns s.Hist.sum_ns);
      bpf "reqisc_span_duration_seconds_count{stage=%s,name=%s} %d\n"
        (escape s.Hist.stage) (escape s.Hist.name) s.Hist.count)
    hists;
  let counters = Robust.Counters.snapshot () in
  if counters <> [] then bpf "# TYPE reqisc_counter_total counter\n";
  List.iter
    (fun (stage, cs) ->
      List.iter
        (fun (name, v) ->
          bpf "reqisc_counter_total{stage=%s,name=%s} %d\n" (escape stage) (escape name) v)
        cs)
    counters;
  let gauges = Robust.Counters.gauges () in
  if gauges <> [] then bpf "# TYPE reqisc_gauge gauge\n";
  List.iter
    (fun (stage, name, v) ->
      bpf "reqisc_gauge{stage=%s,name=%s} %g\n" (escape stage) (escape name) v)
    gauges;
  Buffer.contents b

(* ------------------------------------------------------ json snapshot *)

let snapshot_json () =
  let b = Buffer.create 1024 in
  let bpf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  bpf "{\"spans\":{";
  List.iteri
    (fun i (s : Hist.series) ->
      if i > 0 then Buffer.add_char b ',';
      let q p = seconds_of_ns (int_of_float (Hist.quantile s p)) in
      bpf "%s:{\"count\":%d,\"sum_seconds\":%.9g,\"p50_seconds\":%.9g,\"p99_seconds\":%.9g}"
        (escape (s.Hist.stage ^ "." ^ s.Hist.name))
        s.Hist.count (seconds_of_ns s.Hist.sum_ns) (q 0.5) (q 0.99))
    (Hist.snapshot ());
  bpf "},\"gauges\":{";
  List.iteri
    (fun i (stage, name, v) ->
      if i > 0 then Buffer.add_char b ',';
      bpf "%s:%g" (escape (stage ^ "." ^ name)) v)
    (Robust.Counters.gauges ());
  bpf "}}";
  Buffer.contents b
