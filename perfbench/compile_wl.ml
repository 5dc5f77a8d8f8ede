(* The two in-process compile workloads: each program is compiled through
   a default plan with a fresh [Rng.create 1L] (as the CLI does) and its
   2Q gates are then pulsed one call per gate with no pulse cache — the
   in-process form of [reqisc_cli compile X --mode M --pulses].

   reversible-full: Type-I reversible networks under plan [full]. The
     template and hierarchical passes (QFactor sweeps in [Synth]) take
     nearly all of the time and a few CCX classes recur in every
     program, so template memoisation and the sweep kernel show here.
   pauli-eff: Type-II Pauli-rotation programs under plan [eff]. No pass
     calls [Synth] and compiling takes a few percent of the time; solving
     a pulse for every 2Q gate with no cache takes the rest, so genAshN,
     KAK and the numerics under them dominate, and a template change
     should leave this workload unchanged.

   Every compile output (count, depth, duration) must repeat exactly
   across seeds and runs, so the seed fixes only the order in which each
   pass runs the programs; the program set itself is fixed. Times are
   CPU time of the one thread that does the work ({!Common.cpu_time}),
   and passes take turns on the CPUs ({!Common.rotating_cpus}). *)

open Common

(* default-suite programs, looked up by name as [reqisc_cli compile]
   does; the seed only orders them *)
let reversible = [ "tof_5"; "mult_2"; "encoding_3" ]
let pauli = [ "qaoa_8"; "qaoa_10"; "pf_6"; "pf_10"; "uccsd_8"; "uccsd_12" ]

type program = { name : string; program : Compiler.Pass.program }

let xy = Reqisc.xy_coupling

(* one program's outputs from one pass *)
type output = {
  prog : program;
  out : Compiler.Passes.output;
  gates : (Gate.t * Reqisc.pulse_instruction Robust.Outcome.t) list;
}

(* one program's timings from one pass *)
type timing = {
  name : string;
  stats : Compiler.Passes.pass_stat list;
  compile_s : float;  (** CPU seconds of the whole [compile_plan] call *)
  pulse_lat : float list;  (** CPU seconds per pulsed gate, in gate order *)
}

type raw = { raw_timings : timing list; outputs : output list; raw_errors : int }

(* A pass as kept for the whole run: the first pass's outputs are kept
   for the checks, every pass's only as a digest. *)
type pass = {
  timings : timing list;
  errors : int;  (** compiles that returned an error *)
  digest : string;
}

let bench_span name f = Obs.Span.with_ ~stage:"bench" ~name f

let run_pass plan progs =
  let errors = ref 0 in
  let results =
    List.filter_map
      (fun prog ->
        (* every compile starts from a compacted heap, as in a fresh
           CLI process, whatever ran before it *)
        bench_span "compact_heap" Gc.compact;
        let r, compile_s =
          cpu_time (fun () ->
              bench_span "compile" (fun () ->
                  Compiler.Passes.compile_plan ~plan (Numerics.Rng.create 1L) prog.program))
        in
        match r with
        | Error _ ->
          incr errors;
          None
        | Ok (out, stats) ->
          let c = out.Compiler.Passes.circuit in
          let timed =
            List.filter_map
              (fun (g : Gate.t) ->
                if not (Gate.is_2q g) then None
                else
                  let o, dt =
                    cpu_time (fun () ->
                        bench_span "pulse" (fun () ->
                            Reqisc.pulse_outcomes xy { Circuit.n = c.Circuit.n; gates = [ g ] }))
                  in
                  match o with [ o ] -> Some ((g, o.Reqisc.outcome), dt) | _ -> None)
              c.Circuit.gates
          in
          Some
            ( { name = prog.name; stats; compile_s; pulse_lat = List.map snd timed },
              { prog; out; gates = List.map fst timed } ))
      progs
  in
  {
    raw_timings = List.map fst results;
    outputs = List.map snd results;
    raw_errors = !errors;
  }

(* Fastest readings ({!Common.best}) across a run's passes, unit by
   unit: each program's [compile_plan] call and each gate's pulse. *)
type fastest = {
  f_compile : float;  (** sum of each program's fastest compile *)
  f_pulse : float;  (** sum of each gate's fastest pulse *)
  f_gate_lat : float list;  (** each gate's fastest pulse *)
}

let fastest passes =
  let progs = Hashtbl.create 16 and gates = Hashtbl.create 1024 in
  let note tbl key v =
    Hashtbl.replace tbl key (Float.min v (Option.value ~default:v (Hashtbl.find_opt tbl key)))
  in
  List.iter
    (fun p ->
      List.iter
        (fun d ->
          note progs d.name d.compile_s;
          List.iteri (fun j v -> note gates (d.name, j) v) d.pulse_lat)
        p.timings)
    passes;
  let lats = Hashtbl.fold (fun _ v acc -> v :: acc) gates [] in
  {
    f_compile = Hashtbl.fold (fun _ v acc -> acc +. v) progs 0.0;
    f_pulse = List.fold_left ( +. ) 0.0 lats;
    f_gate_lat = lats;
  }

(* ------------------------------------------------------------ checks *)

(* Bytes that identify a pass's outputs: every compiled gate and every
   pulse, floats by their bit patterns, programs in name order. Every
   pass of every run must produce the same digest. *)
let digest results =
  let b = Buffer.create 4096 in
  let fl x = Buffer.add_string b (Printf.sprintf "%Lx," (Int64.bits_of_float x)) in
  let mat mt =
    for i = 0 to Numerics.Mat.rows mt - 1 do
      for j = 0 to Numerics.Mat.cols mt - 1 do
        fl (Numerics.Mat.get_re mt i j);
        fl (Numerics.Mat.get_im mt i j)
      done
    done
  in
  List.iter
    (fun d ->
      Buffer.add_string b d.prog.name;
      Array.iter (fun q -> Buffer.add_string b (string_of_int q ^ ",")) d.out.final_mapping;
      List.iter
        (fun (g : Gate.t) ->
          Buffer.add_string b g.label;
          Array.iter (fun q -> Buffer.add_string b (string_of_int q ^ ",")) g.qubits;
          mat g.mat)
        d.out.circuit.Circuit.gates;
      List.iter
        (fun (_, o) ->
          match o with
          | Robust.Outcome.Solved (i : Reqisc.pulse_instruction)
          | Robust.Outcome.Degraded (i, _) ->
            let p = i.pulse in
            List.iter fl
              [ p.Microarch.Genashn.tau; p.drive_x1; p.drive_x2; p.delta ];
            Option.iter (fun (a, b) -> mat a; mat b) i.pre;
            Option.iter (fun (a, b) -> mat a; mat b) i.post
          | Robust.Outcome.Failed _ -> Buffer.add_string b "failed")
        d.gates)
    (List.sort (fun a b -> compare a.prog.name b.prog.name) results);
  Digest.to_hex (Digest.string (Buffer.contents b))

let seal r = { timings = r.raw_timings; errors = r.raw_errors; digest = digest r.outputs }

(* Whole-program statevector check against the uncompiled source. Each
   synthesis pass may lose up to 1e-4 of fidelity (its own oracle), so
   the composed program is held to 1e-3. Programs wider than
   [max_qubits] are skipped and counted, never passed. *)
let equiv_oracle = { Compiler.Pass.tol = 1e-3; max_qubits = 12 }

(* a pulse, wrapped in its 1Q corrections, must give the gate's matrix
   up to global phase *)
let pulse_tol = 1e-6

let pulse_error (g : Gate.t) (i : Reqisc.pulse_instruction) =
  let open Numerics in
  let realized = Microarch.Genashn.evolve xy i.pulse in
  let kron2 = function Some (a, b) -> Mat.kron a b | None -> Mat.identity 4 in
  let v = Mat.mul3 (kron2 i.post) realized (kron2 i.pre) in
  Quantum.Fidelity.infidelity g.mat v

type checks = {
  mutable failed : int;
  mutable skipped : int;
  mutable worst_pulse : float;
}

let check_outputs results =
  let ck = { failed = 0; skipped = 0; worst_pulse = 0.0 } in
  List.iter
    (fun d ->
      let candidate =
        Compiler.Pass.Mirrored
          { circuit = d.out.circuit; final_mapping = d.out.final_mapping;
            mirrored = d.out.mirrored }
      in
      (match
         Compiler.Pass.check_equiv equiv_oracle ~reference:(Compiler.Pass.Source d.prog.program)
           ~candidate
       with
      | Ok Compiler.Pass.Checked -> ()
      | Ok (Compiler.Pass.Skipped _) -> ck.skipped <- ck.skipped + 1
      | Error msg ->
        Printf.eprintf "check: %s not equivalent to its source: %s\n%!" d.prog.name msg;
        ck.failed <- ck.failed + 1);
      List.iter
        (fun (g, o) ->
          match o with
          | Robust.Outcome.Solved i | Robust.Outcome.Degraded (i, _) ->
            let e = pulse_error g i in
            ck.worst_pulse <- Float.max ck.worst_pulse e;
            if not (e <= pulse_tol) then begin
              Printf.eprintf "check: %s pulse error %.3g on %s\n%!" d.prog.name e g.Gate.label;
              ck.failed <- ck.failed + 1
            end
          | Robust.Outcome.Failed _ -> ck.failed <- ck.failed + 1)
        d.gates)
    results;
  ck

(* ----------------------------------------------------------- metrics *)

let quality results =
  List.fold_left
    (fun (n, dp, du) d ->
      let r = Compiler.Metrics.report (Compiler.Metrics.Su4_isa xy) d.out.circuit in
      (n + r.count_2q, dp + r.depth_2q, du +. r.duration))
    (0, 0, 0.0) results

(* distinct Weyl classes among the pulsed gates, keyed like the pulse
   cache *)
let distinct_classes results =
  let seen = Hashtbl.create 256 in
  List.iter
    (fun d ->
      List.iter
        (fun ((g : Gate.t), _) ->
          match Weyl.Kak.coords_of_r g.mat with
          | Ok c -> Hashtbl.replace seen (Microarch.Genashn.cache_fingerprint xy c) ()
          | Error _ -> ())
        d.gates)
    results;
  Hashtbl.length seen

(* per-pass sum over programs of one pass_stat field *)
let pass_sum field (p : pass) name =
  List.fold_left
    (fun acc d ->
      List.fold_left
        (fun acc (s : Compiler.Passes.pass_stat) ->
          if s.pass = name && s.ran then acc +. field s else acc)
        acc d.stats)
    0.0 p.timings

let setups_per_pass = 5

let run ~mode ~programs ~seed ~seconds ~trace =
  let plan = Compiler.Passes.plan_of_mode mode in
  (* set-up: build the suite and pick the programs. It is timed
     [setups_per_pass] times in a row from a compacted heap before every
     pass, and the figure is the median of all of them: a 1 ms job read
     once per pass would mostly time the caches left cold by the move to
     another CPU and the garbage of the pass before. *)
  let setup () =
    let suite = Benchmarks.Suite.suite () in
    let find name =
      let b = List.find (fun (b : Benchmarks.Suite.bench) -> b.name = name) suite in
      { name; program = b.program }
    in
    Array.of_list (List.map find programs)
  in
  let progs = setup () in
  (* every pass runs the programs in a fresh seeded order, so no unit's
     fastest reading depends on one fixed predecessor; the first
     [min_passes], after which the heap peak is read, keep the listed
     order so that the peak does not move with the seed *)
  let rng = Numerics.Rng.create seed in
  let order i =
    let a = Array.copy progs in
    if i >= min_passes then Numerics.Rng.shuffle rng a;
    Array.to_list a
  in
  rotating_cpus @@ fun go_to ->
  let setups = ref [] and first = ref [] in
  let timed_pass i =
    go_to i;
    Gc.compact ();
    for _ = 1 to setups_per_pass do
      setups := snd (cpu_time setup) :: !setups
    done;
    let r = run_pass plan (order i) in
    if i = 0 then first := r.outputs;
    seal r
  in
  let heap = ref 0.0 in
  let plain_seconds = if trace then seconds /. 2.0 else seconds in
  let plain = passes_for ~seconds:plain_seconds ~heap timed_pass in
  let tr = new_trace () in
  let before = counter_snapshot counter_keys in
  let traced_passes =
    if trace then
      passes_for ~seconds:(seconds /. 2.0) ~heap:(ref 0.0) (fun i ->
          go_to i;
          let progs = order i in
          seal (traced tr (fun () -> run_pass plan progs)))
    else []
  in
  let deltas = counter_delta before in
  (* checks, outside every timing: the first pass in full, every pass
     by digest *)
  let first = !first in
  let ck = check_outputs first in
  let d0 = digest first in
  let all = plain @ traced_passes in
  let mismatched = List.length (List.filter (fun p -> p.digest <> d0) all) in
  if mismatched > 0 then Printf.eprintf "check: %d passes differ from the first\n%!" mismatched;
  let errors = List.fold_left (fun a p -> a + p.errors) 0 all in
  let gates_per_pass = List.fold_left (fun a d -> a + List.length d.gates) 0 first in
  let ops_per_pass = Array.length progs + gates_per_pass in
  let attempted = ops_per_pass * List.length all in
  let failed = errors + ck.failed + mismatched in
  let n2q, d2q, dur = quality first in
  let b = fastest plain in
  let lat = b.f_gate_lat in
  let tail_p, tail_v =
    match Stats.tail lat with Some (p, v) -> (p, v) | None -> (nan, nan)
  in
  let e2e =
    [
      m "setup_s" "s" (Stats.median !setups);
      m "pass_s" "s" (b.f_compile +. b.f_pulse);
      m "compile_s" "s" b.f_compile;
      m "pulse_s" "s" b.f_pulse;
      m "count_2q" "count" (float_of_int n2q);
      m "depth_2q" "count" (float_of_int d2q);
      m "duration_g" "1/g" dur;
      m "peak_heap_mb" "MiB" !heap;
      m "ok_ratio" "ratio" (1.0 -. (float_of_int failed /. float_of_int (max 1 attempted)));
      m "throughput_rps" "1/s" (float_of_int gates_per_pass /. (b.f_compile +. b.f_pulse));
      m "p50_ms" "ms" (Stats.median lat *. 1e3);
      m "p99_ms" "ms" (tail_v *. 1e3);
    ]
  in
  let bench_s =
    total_s tr "bench/compact_heap" +. total_s tr "bench/compile" +. total_s tr "bench/pulse"
  in
  let report =
    [
      ( "programs",
        "[" ^ String.concat "," (List.map (fun (p : program) -> json_string p.name) (Array.to_list progs))
        ^ "]" );
      ("passes", string_of_int (List.length plain));
      ("traced_passes", string_of_int (List.length traced_passes));
      ("digest", json_string d0);
      ("check.skipped", string_of_int ck.skipped);
      ("check.worst_pulse_err", json_float ck.worst_pulse);
      ("latency_samples", string_of_int (List.length lat));
      ("tail_percentile", json_float tail_p);
    ]
  in
  let metrics =
    if not trace then e2e
    else
      Layers.rows
        {
          (Layers.empty tr) with
          deltas;
          pass_wall = (fun name -> best (List.map (fun p -> pass_sum (fun s -> s.wall_s) p name) plain));
          pass_count_2q = (fun name -> pass_sum (fun s -> float_of_int s.count_2q) (List.hd plain) name);
          template_classes =
            float_of_int
              (List.fold_left (fun a d -> a + d.out.Compiler.Passes.template_classes) 0 first);
          pulse_gates = float_of_int gates_per_pass;
          distinct_ratio =
            float_of_int (distinct_classes first)
            /. float_of_int (max 1 gates_per_pass);
          check_skipped = float_of_int ck.skipped;
          worst_pulse_err = ck.worst_pulse;
          overhead =
            (let t = fastest traced_passes in
             ((t.f_compile +. t.f_pulse) /. (b.f_compile +. b.f_pulse)) -. 1.0);
          unattributed_share = 1.0 -. (bench_s /. fastest_wall tr);
        }
  in
  { metrics; attempted; failed; checks_ok = failed = 0 && tr.dropped = 0; report }
