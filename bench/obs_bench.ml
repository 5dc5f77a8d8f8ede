(* `obs` bench target: the observability layer's overhead contract.

   Runs the same compile+synthesize workload with and without a recorder
   installed (fresh in-memory pulse cache per repetition, so every rep
   does identical cold work) and asserts tracing costs <= 2% wall clock.
   Writes BENCH_obs.json at the repo root. The Chrome-trace validity
   check lives in test_obs ("chrome trace of a compile"). *)

open Util

let overhead_budget = 0.02
let reps = 15

(* table2-style workload over a suite prefix; the fresh memory-only
   cache per call keeps the solver work identical across repetitions *)
let workload ~limit ~big () =
  let suite = List.filteri (fun i _ -> i < limit) (Benchmarks.Suite.suite ~big ()) in
  match Cache.create () with
  | Error e -> failwith ("obs bench: cannot create memory cache: " ^ e)
  | Ok cache ->
    Fun.protect ~finally:(fun () -> Cache.close cache) @@ fun () ->
    Reqisc.with_pulse_cache cache @@ fun () ->
    List.iter
      (fun (b : Benchmarks.Suite.bench) ->
        let rng = Numerics.Rng.create 1L in
        let plan = Compiler.Passes.plan_of_mode Compiler.Passes.Eff in
        match Compiler.Passes.compile_plan ~plan rng b.program with
        | Error _ -> ()
        | Ok (out, _) -> ignore (Reqisc.pulse_outcomes xy out.Compiler.Passes.circuit))
      suite

let min_of xs = List.fold_left Float.min infinity xs

let median xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
    let n = List.length sorted in
    let nth i = List.nth sorted i in
    if n mod 2 = 1 then nth (n / 2) else 0.5 *. (nth ((n / 2) - 1) +. nth (n / 2))

let write_json path ~limit ~untraced ~traced ~overhead ~pass ~events =
  Util.write_json ~tag:"obs" path
    (Json.Obj
       [
         ( "workload",
           Json.Obj [ ("benches", int limit); ("mode", Json.Str "eff"); ("reps", int reps) ] );
         ("untraced_seconds", Json.Num untraced);
         ("traced_seconds", Json.Num traced);
         ("overhead", Json.Num overhead);
         ("overhead_budget", Json.Num overhead_budget);
         ("overhead_pass", Json.Bool pass);
         ("trace_events", int events);
       ])

let obs ?(limit = 3) ~big () =
  hr "obs: tracing overhead contract";
  (* warm up once (page in the template library paths etc.), then
     alternate which side runs first each rep so heap growth, frequency
     scaling and GC drift hit both sides equally *)
  workload ~limit ~big ();
  let untraced = ref [] and traced = ref [] in
  let events = ref 0 in
  let run_plain () =
    Gc.full_major ();
    let (), t = timeit (workload ~limit ~big) in
    untraced := t :: !untraced
  in
  let run_traced () =
    Gc.full_major ();
    let ((), t), r =
      Obs.Recorder.with_recorder (fun () -> timeit (workload ~limit ~big))
    in
    traced := t :: !traced;
    events := List.length (Obs.Recorder.events r)
  in
  for rep = 1 to reps do
    if rep mod 2 = 1 then begin
      run_plain ();
      run_traced ()
    end
    else begin
      run_traced ();
      run_plain ()
    end
  done;
  let t_untraced = min_of !untraced and t_traced = min_of !traced in
  (* overhead is the median of per-rep traced/plain ratios: pairing the
     two sides inside each rep cancels machine drift that min-of-reps
     across the whole run cannot *)
  let ratios = List.map2 (fun t p -> t /. p) !traced !untraced in
  let overhead = median ratios -. 1.0 in
  let pass = overhead <= overhead_budget in
  Printf.printf "  workload: %d benches, %d reps (paired per-rep ratios)\n" limit reps;
  Printf.printf
    "  untraced min %.3fs  traced min %.3fs  overhead (median ratio) %+.2f%% \
     (budget %.0f%%): %s\n"
    t_untraced t_traced (100.0 *. overhead) (100.0 *. overhead_budget)
    (if pass then "PASS" else "FAIL");
  Printf.printf "  last traced rep: %d span events\n" !events;
  write_json "BENCH_obs.json" ~limit ~untraced:t_untraced ~traced:t_traced ~overhead
    ~pass ~events:!events
