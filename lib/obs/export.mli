(** Exporters over recorded spans and the aggregate registries.

    Three formats (the two JSON ones as {!Robust.Json.t} values):
    - {!chrome_trace}: Chrome trace-event JSON ([chrome://tracing] /
      Perfetto loadable) from a recorder's raw events;
    - {!prometheus}: Prometheus text exposition (histograms from
      {!Hist}, counters and gauges from {!Robust.Counters}, the one
      counter registry);
    - {!snapshot_json}: span histograms and gauges as one JSON object
      (the ["obs"] block of the server's [stats] response, whose
      counters are its top-level ["counters"] object). *)

(** [chrome_trace events] — an object [{"traceEvents": [...],
    "displayTimeUnit": "ms"}] of complete ("ph":"X") events; timestamps
    are microseconds relative to the earliest event, [pid] 1, [tid] the
    emitting domain, nesting depth under ["args"]. *)
val chrome_trace : Sink.span_event list -> Robust.Json.t

(** [write_chrome_trace path events] writes {!chrome_trace} as one line. *)
val write_chrome_trace : string -> Sink.span_event list -> unit

(** Prometheus text exposition of the current {!Hist} and
    {!Robust.Counters} registries: [reqisc_span_duration_seconds]
    histogram series plus [reqisc_counter_total] and [reqisc_gauge], all
    labelled [{stage=..., name=...}]. Label values escape only what the
    exposition format defines: backslash, double quote and newline. *)
val prometheus : unit -> string

(** One JSON object: [{"spans": {"stage.name": {"count": .., "sum_seconds":
    .., "p50_seconds": .., "p99_seconds": ..}, ...}, "gauges":
    {"stage.name": v, ...}}]. Quantiles are {!Hist.quantile} bucket upper
    bounds. *)
val snapshot_json : unit -> Robust.Json.t
