(* Shared pieces of the workloads: the result record, clocks, metric
   rows, counter deltas and the aggregation of recorded spans. *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

type result = {
  metrics : metric list;  (** end-to-end rows without trace, per-layer with *)
  attempted : int;
  failed : int;
  checks_ok : bool;  (** every output check passed and the trace is whole *)
  report : (string * string) list;  (** extra fields for the report line, raw JSON *)
}

let now () = Unix.gettimeofday ()

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* The compile workloads run on one thread of one domain, so the CPU
   time that thread is charged is the time their work takes. Unlike the
   wall clock it leaves out the time the host runs other guests on this
   virtual CPU (steal time, which Linux keeps out of a task's runtime
   under paravirtual time accounting) and the time other processes of the
   guest hold the core. *)
external thread_cpu_seconds : unit -> (float[@unboxed])
  = "perfbench_thread_cpu_seconds_byte" "perfbench_thread_cpu_seconds"
[@@noalloc]

let cpu_time f =
  let t0 = thread_cpu_seconds () in
  let r = f () in
  (r, thread_cpu_seconds () -. t0)

external allowed_cpus : unit -> int array = "perfbench_allowed_cpus"
external set_cpus : int array -> bool = "perfbench_set_cpus"

(* A busy single thread stays on the CPU it started on, and on a shared
   host one virtual CPU can run its work up to 1.9x slower than another
   for minutes at a time (a hyperthread sibling busy with another guest),
   which CPU time does not leave out. [rotating_cpus f] passes [f] a
   function that moves the calling thread to the [i]th allowed CPU, round
   robin, so that successive passes sample every CPU; the thread gets its
   whole mask back when [f] returns. *)
let rotating_cpus f =
  let cpus = allowed_cpus () in
  let n = Array.length cpus in
  let go_to i = if n > 1 then ignore (set_cpus [| cpus.(i mod n) |]) in
  Fun.protect ~finally:(fun () -> if n > 1 then ignore (set_cpus cpus)) (fun () -> f go_to)

(* The compile workloads' time figures are the fastest CPU-time reading
   of a unit of work (a program's compile, a gate's pulse) over a run.
   Cache misses, interrupts and a busy sibling core only ever add time,
   so the fastest reading is the steadiest estimate of the work's own
   cost. *)
let best = List.fold_left Float.min Float.infinity

let peak_heap_mb () =
  let s = Gc.quick_stat () in
  float_of_int (s.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* Run [pass] until [seconds] have elapsed, at least [min_passes] times.
   The heap peak is read after the first [min_passes] passes, so it
   covers the same work whatever the run length. *)
let min_passes = 3

let passes_for ~seconds ~heap pass =
  let t0 = now () in
  let rec go i acc =
    if i >= min_passes && now () -. t0 >= seconds then List.rev acc
    else begin
      let p = pass i in
      if i = min_passes - 1 then heap := peak_heap_mb ();
      go (i + 1) (p :: acc)
    end
  in
  go 0 []

(* ---------------------------------------------------------- counters *)

(* Robust.Counters is process-global and only grows, so every figure
   taken from it is a delta around the window it describes. *)
let counter stage name = Robust.Counters.get ~stage name

let counter_snapshot keys = List.map (fun (s, n) -> ((s, n), counter s n)) keys

let counter_delta before =
  List.map (fun ((s, n), v) -> ((s, n), counter s n - v)) before

let delta_of deltas stage name =
  match List.assoc_opt (stage, name) deltas with Some v -> v | None -> 0

let counter_keys =
  [
    ("genashn", "solve_run");
    ("genashn", "cache_hit");
    ("genashn", "degraded");
    ("genashn", "failed");
    ("solver.ea", "retry");
    ("solver.nd", "retry");
    ("compiler.pipeline", "hier_fallback");
    ("cache", "hit");
    ("cache", "hit_disk");
    ("cache", "miss");
    ("cache", "insert");
    ("serve", "coalesce_hit");
  ]

(* ------------------------------------------------------------- trace *)

(* A traced run records one window per pass. Latency percentiles pool
   every span of every window; per-pass times and self times come from
   the fastest window, for the reason given at {!best}; counts are per
   window. *)
type window = {
  wall : float;
  sums : (string, float * float) Hashtbl.t;  (** key -> (total, self) seconds *)
}

type trace = {
  durs : (string, float list) Hashtbl.t;  (** key ["stage/name"] -> every duration *)
  totals : (string, float) Hashtbl.t;  (** key -> seconds over all windows *)
  mutable windows : window list;
  mutable dropped : int;
}

let new_trace () =
  { durs = Hashtbl.create 64; totals = Hashtbl.create 64; windows = []; dropped = 0 }

let bump tbl key v = Hashtbl.replace tbl key (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl key))

(* [traced tr f] runs [f] with a fresh recorder installed and folds its
   events into a new window of [tr]. One recorder per pass keeps the ring
   small; a pass that overflows it shows up in [dropped]. *)
let traced tr f =
  let r = Obs.Recorder.start ~capacity:(1 lsl 17) () in
  let v, wall = Fun.protect ~finally:(fun () -> Obs.Recorder.stop r) (fun () -> time f) in
  let evs = Array.of_list (Obs.Recorder.events r) in
  tr.dropped <- tr.dropped + Obs.Recorder.dropped r;
  let selfs =
    Stats.self_times
      (Array.map
         (fun (e : Obs.Sink.span_event) ->
           { Stats.t0 = e.t0_ns; dur = e.dur_ns; depth = e.depth; domain = e.domain })
         evs)
  in
  let sums = Hashtbl.create 64 in
  Array.iteri
    (fun i (e : Obs.Sink.span_event) ->
      let key = e.stage ^ "/" ^ e.name in
      let d = float_of_int e.dur_ns *. 1e-9 and sf = float_of_int selfs.(i) *. 1e-9 in
      Hashtbl.replace tr.durs key (d :: Option.value ~default:[] (Hashtbl.find_opt tr.durs key));
      bump tr.totals key d;
      let t, s = Option.value ~default:(0.0, 0.0) (Hashtbl.find_opt sums key) in
      Hashtbl.replace sums key (t +. d, s +. sf))
    evs;
  tr.windows <- tr.windows @ [ { wall; sums } ];
  v

let fastest_window tr =
  List.fold_left
    (fun acc w -> match acc with Some b when b.wall <= w.wall -> acc | _ -> Some w)
    None tr.windows

let window_sum pick tr key =
  match fastest_window tr with
  | Some w -> (match Hashtbl.find_opt w.sums key with Some ts -> pick ts | None -> 0.0)
  | None -> 0.0

let total_s = window_sum fst
let self_s = window_sum snd
let fastest_wall tr = match fastest_window tr with Some w -> w.wall | None -> nan

(* counts per recorded pass *)
let per_pass tr x =
  match tr.windows with [] -> 0.0 | ws -> x /. float_of_int (List.length ws)

let p50_us tr key =
  match Hashtbl.find_opt tr.durs key with Some ds -> Stats.median ds *. 1e6 | None -> 0.0

(* the tail rule of {!Stats.tail}; 0 when the span never fired *)
let p99_us tr key =
  match Hashtbl.find_opt tr.durs key with
  | Some ds -> (match Stats.tail ds with Some (_, v) -> v *. 1e6 | None -> 0.0)
  | None -> 0.0

(* ------------------------------------------------------------ output *)

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let json_string s = Printf.sprintf "%S" s
