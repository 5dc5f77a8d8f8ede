(* The per-layer rows of a traced run. Every workload reports the same
   names; a layer a workload never reaches reads 0. Times and counts are
   per pass over the workload's inputs, latency percentiles are over
   every recorded span. *)

open Common

type inputs = {
  tr : trace;
  deltas : ((string * string) * int) list;  (** counter deltas over the traced passes *)
  pass_wall : string -> float;  (** seconds per pass spent in a compiler pass *)
  pass_count_2q : string -> float;  (** 2Q gates after a compiler pass *)
  template_classes : float;
  pulse_gates : float;
  distinct_ratio : float;
  disk_bytes : float;
  outside_share : float;
  serve_errors : float;
  refused : float;
  check_skipped : float;
  worst_pulse_err : float;
  serve_mismatch : float;
  overhead : float;
  unattributed_share : float;
}

let empty tr =
  {
    tr;
    deltas = [];
    pass_wall = (fun _ -> 0.0);
    pass_count_2q = (fun _ -> 0.0);
    template_classes = 0.0;
    pulse_gates = 0.0;
    distinct_ratio = 0.0;
    disk_bytes = 0.0;
    outside_share = 0.0;
    serve_errors = 0.0;
    refused = 0.0;
    check_skipped = 0.0;
    worst_pulse_err = 0.0;
    serve_mismatch = 0.0;
    overhead = 0.0;
    unattributed_share = 0.0;
  }

let compiler_passes = [ "lower_3q"; "template"; "phoenix_to_su4"; "hierarchical"; "mirroring" ]

let rows i =
  let tr = i.tr in
  let per n = per_pass tr (float_of_int n) in
  let d stage name = per (delta_of i.deltas stage name) in
  let hits = d "cache" "hit" and disk_hits = d "cache" "hit_disk" and misses = d "cache" "miss" in
  let probes = hits +. disk_hits +. misses in
  List.concat_map
    (fun p ->
      [
        m ("compiler.pass." ^ p ^ ".s") "s" (i.pass_wall p);
        m ("compiler.pass." ^ p ^ ".self_s") "s" (self_s tr ("compiler/" ^ p));
      ]
      @
      if p = "lower_3q" then []
      else [ m ("compiler.pass." ^ p ^ ".count_2q") "count" (i.pass_count_2q p) ])
    compiler_passes
  @ [
      m "compiler.template.classes" "count" i.template_classes;
      m "compiler.compact.s" "s" (total_s tr "compiler/compact");
      m "compiler.hier_fallback" "count" (d "compiler.pipeline" "hier_fallback");
      m "genashn.solve.s" "s" (total_s tr "solver/solve_coords");
      m "genashn.solve.p50_us" "us" (p50_us tr "solver/solve_coords");
      m "genashn.solve.p99_us" "us" (p99_us tr "solver/solve_coords");
      m "weyl.kak.s" "s" (total_s tr "solver/kak");
      m "genashn.ea.grid.s" "s" (total_s tr "solver/ea.grid");
      m "genashn.ea.newton.s" "s" (total_s tr "solver/ea.newton");
      m "genashn.ea.nelder_mead.s" "s" (total_s tr "solver/ea.nelder_mead");
      m "genashn.solve_run" "count" (d "genashn" "solve_run");
      m "genashn.cache_hit" "count" (d "genashn" "cache_hit");
      m "genashn.degraded" "count" (d "genashn" "degraded");
      m "genashn.failed" "count" (d "genashn" "failed");
      m "genashn.retries" "count" (d "solver.ea" "retry" +. d "solver.nd" "retry");
      m "pulse.gates" "count" i.pulse_gates;
      m "pulse.distinct_ratio" "ratio" i.distinct_ratio;
      m "cache.hits" "count" hits;
      m "cache.disk_hits" "count" disk_hits;
      m "cache.misses" "count" misses;
      m "cache.inserts" "count" (d "cache" "insert");
      m "cache.hit_ratio" "ratio" (if probes > 0.0 then (hits +. disk_hits) /. probes else 0.0);
      m "cache.disk_bytes" "bytes" i.disk_bytes;
      m "cache.hit.p50_us" "us" (p50_us tr "cache/hit");
      m "cache.miss.p50_us" "us" (p50_us tr "cache/miss");
      m "cache.insert.p50_us" "us" (p50_us tr "cache/insert");
      m "serve.queue_wait.p50_us" "us" (p50_us tr "serve/queue_wait");
      m "serve.queue_wait.p99_us" "us" (p99_us tr "serve/queue_wait");
      m "serve.exec.pulses.p50_us" "us" (p50_us tr "serve/exec.pulses");
      m "serve.exec.stats.p50_us" "us" (p50_us tr "serve/exec.stats");
      m "serve.exec.compile.p50_us" "us" (p50_us tr "serve/exec.compile");
      m "serve.outside_engine_share" "ratio" i.outside_share;
      m "serve.errors" "count" i.serve_errors;
      m "serve.refused" "count" i.refused;
      m "serve.coalesce_hit" "count" (d "serve" "coalesce_hit");
      m "check.skipped" "count" i.check_skipped;
      m "check.worst_pulse_err" "infidelity" i.worst_pulse_err;
      m "check.serve_mismatch" "count" i.serve_mismatch;
      m "trace.overhead" "ratio" i.overhead;
      m "trace.unattributed_share" "ratio" i.unattributed_share;
      m "trace.dropped" "count" (float_of_int tr.dropped);
    ]
