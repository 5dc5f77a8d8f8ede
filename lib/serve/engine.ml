let stage = "serve"
let coalesce_stage = "serve.coalesce"

(* one requester awaiting a response: the id to attach and the closure
   routing it back to wherever the request came from *)
type waiter = { id : Json.t; respond : Json.t -> unit }

type job =
  (* executed for exactly one requester (parse errors, stats, batch, ...) *)
  | Direct of { parsed : Protocol.parsed; enqueued_ns : int; respond : Json.t -> unit }
  (* single-flight leader: executed once, fanned out to every waiter
     registered under [key] by the time the result is ready *)
  | Flight of { key : string; body : Protocol.body; enqueued_ns : int }

type t = {
  seed : int64;
  suite : Benchmarks.Suite.bench list;
  cache : Cache.t option;
  queue : job Jobq.t;
  coalesce : bool;
  flight_lock : Mutex.t;
  flights : (string, waiter list ref) Hashtbl.t;
  served : int Atomic.t;
  errors : int Atomic.t;
  t0 : float;
  owned_recorder : Obs.Recorder.t option;
  mutable domains : unit Domain.t array;
}

let xy = Microarch.Coupling.xy ~g:1.0

(* Derive the solver budget from the request's explicit budget spec and
   the wall-clock remaining before its deadline, whichever is tighter.
   A deadline with no explicit budget still bounds the solver (default
   iteration cap, deadline-derived wall clock) — a request that asked to
   be dropped at T must not keep a worker busy past T. *)
let budget_of_spec ?remaining_s spec =
  match (spec, remaining_s) with
  | None, None -> None
  | None, Some r -> Some (Robust.Budget.make ~max_seconds:r ())
  | Some { Protocol.max_iterations; max_seconds }, None ->
    Some (Robust.Budget.make ?max_iterations ?max_seconds ())
  | Some { Protocol.max_iterations; max_seconds }, Some r ->
    let max_seconds =
      match max_seconds with None -> r | Some s -> Float.min s r
    in
    Some (Robust.Budget.make ?max_iterations ~max_seconds ())

(* ------------------------------------------------------------- pulses *)

let named_gate = function
  | "cnot" -> Some Quantum.Gates.cnot
  | "cz" -> Some Quantum.Gates.cz
  | "iswap" -> Some Quantum.Gates.iswap
  | "sqisw" -> Some Quantum.Gates.sqisw
  | "b" -> Some Quantum.Gates.b_gate
  | "swap" -> Some Quantum.Gates.swap
  | _ -> None

let pulse_json ?residual ?retries ?note ~verdict (p : Microarch.Genashn.pulse) =
  let base =
    [
      ("verdict", Json.Str verdict);
      ("mode", Json.Str (Microarch.Tau.subscheme_to_string p.subscheme));
      ("tau", Json.Num p.tau);
      ("a1", Json.Num (-2.0 *. p.drive_x1));
      ("a2", Json.Num (-2.0 *. p.drive_x2));
      ("delta", Json.Num p.delta);
    ]
  in
  let extra =
    (match residual with Some r -> [ ("residual", Json.Num r) ] | None -> [])
    @ (match retries with Some r -> [ ("retries", Json.Num (float_of_int r)) ] | None -> [])
    @ match note with Some n -> [ ("note", Json.Str n) ] | None -> []
  in
  Json.Obj (base @ extra)

(* the request's custom plan; parse-time validation makes this
   infallible, but keep the typed error path anyway *)
let plan_of_passes names = Compiler.Passes.of_names ~name:"request" names

(* pulses for a gate target compiled through a custom plan: run the
   one-gate circuit through the plan, then Algorithm 1 per remaining 2Q
   gate (the plan may split, relabel, or mirror the gate) *)
let exec_pulses_plan t ~budget ~coupling ~name ~mat names =
  match plan_of_passes names with
  | Error e -> Protocol.err_item e
  | Ok plan -> (
    let rng = Numerics.Rng.create t.seed in
    let circuit = Circuit.create 2 [ Gate.su4 0 1 mat ] in
    match Compiler.Passes.compile_plan ~plan rng (Compiler.Pass.Gates circuit) with
    | Error e -> Protocol.err_item e
    | Ok (out, _) -> (
      let gates =
        List.filter Gate.is_2q out.Compiler.Passes.circuit.Circuit.gates
      in
      let rec solve acc = function
        | [] -> Ok (List.rev acc)
        | (g : Gate.t) :: rest -> (
          match Microarch.Genashn.solve_r ?budget coupling g.mat with
          | Robust.Outcome.Failed e -> Error e
          | Robust.Outcome.Solved r ->
            solve
              (Json.Obj
                 [
                   ("class", Json.Str (Weyl.Coords.to_string r.Microarch.Genashn.coords));
                   ("pulse", pulse_json ~verdict:"ok" r.Microarch.Genashn.pulse);
                 ]
              :: acc)
              rest
          | Robust.Outcome.Degraded (r, i) ->
            solve
              (Json.Obj
                 [
                   ("class", Json.Str (Weyl.Coords.to_string r.Microarch.Genashn.coords));
                   ( "pulse",
                     pulse_json ~verdict:"degraded" ~residual:i.Robust.Outcome.residual
                       ~retries:i.Robust.Outcome.retries ~note:i.Robust.Outcome.note
                       r.Microarch.Genashn.pulse );
                 ]
              :: acc)
              rest)
      in
      match solve [] gates with
      | Error e -> Protocol.err_item e
      | Ok pulses ->
        Protocol.ok_item ~op:"pulses"
          (Json.Obj
             [
               ("gate", Json.Str name);
               ("passes", Json.Arr (List.map (fun n -> Json.Str n) names));
               ("gates", Json.Num (float_of_int (List.length gates)));
               ("pulses", Json.Arr pulses);
             ])))

let exec_pulses t ~budget ~target ~coupling ~passes =
  let coupling =
    match coupling with "xx" -> Microarch.Coupling.xx ~g:1.0 | _ -> xy
  in
  match target with
  | Protocol.Gate name -> (
    match named_gate name with
    | None ->
      Protocol.error_item ~kind:"bad_request" ~stage:"serve.pulses"
        (Printf.sprintf "unknown gate %S (expected cnot|cz|iswap|sqisw|b|swap)" name)
    | Some mat when passes <> None ->
      exec_pulses_plan t ~budget ~coupling ~name ~mat (Option.get passes)
    | Some mat -> (
      match Microarch.Genashn.solve_r ?budget coupling mat with
      | Robust.Outcome.Failed e -> Protocol.err_item e
      | Robust.Outcome.Solved r ->
        Protocol.ok_item ~op:"pulses"
          (Json.Obj
             [
               ("gate", Json.Str name);
               ("class", Json.Str (Weyl.Coords.to_string r.Microarch.Genashn.coords));
               ("pulse", pulse_json ~verdict:"ok" r.Microarch.Genashn.pulse);
             ])
      | Robust.Outcome.Degraded (r, i) ->
        Protocol.ok_item ~op:"pulses"
          (Json.Obj
             [
               ("gate", Json.Str name);
               ("class", Json.Str (Weyl.Coords.to_string r.Microarch.Genashn.coords));
               ( "pulse",
                 pulse_json ~verdict:"degraded" ~residual:i.Robust.Outcome.residual
                   ~retries:i.Robust.Outcome.retries ~note:i.Robust.Outcome.note
                   r.Microarch.Genashn.pulse );
             ])))
  | Protocol.Coords (x, y, z) -> (
    let c = Weyl.Coords.make x y z in
    if not (Weyl.Coords.in_chamber ~tol:1e-9 c) then
      Protocol.error_item ~kind:"bad_request" ~stage:"serve.pulses"
        (Printf.sprintf "coords %s are outside the canonical Weyl chamber"
           (Weyl.Coords.to_string c))
    else
      match Microarch.Genashn.solve_coords_r ?budget coupling c with
      | Robust.Outcome.Failed e -> Protocol.err_item e
      | Robust.Outcome.Solved p ->
        Protocol.ok_item ~op:"pulses"
          (Json.Obj
             [
               ("class", Json.Str (Weyl.Coords.to_string c));
               ("pulse", pulse_json ~verdict:"ok" p);
             ])
      | Robust.Outcome.Degraded (p, i) ->
        Protocol.ok_item ~op:"pulses"
          (Json.Obj
             [
               ("class", Json.Str (Weyl.Coords.to_string c));
               ( "pulse",
                 pulse_json ~verdict:"degraded" ~residual:i.Robust.Outcome.residual
                   ~retries:i.Robust.Outcome.retries ~note:i.Robust.Outcome.note p );
             ]))

(* ------------------------------------------------------------ compile *)

let report_json (r : Compiler.Metrics.report) =
  Json.Obj
    [
      ("count_2q", Json.Num (float_of_int r.count_2q));
      ("depth_2q", Json.Num (float_of_int r.depth_2q));
      ("duration", Json.Num r.duration);
      ("distinct_2q", Json.Num (float_of_int r.distinct_2q));
    ]

let pass_stat_json (s : Compiler.Passes.pass_stat) =
  Json.Obj
    [
      ("pass", Json.Str s.pass);
      ("ran", Json.Bool s.ran);
      ("form", Json.Str s.form);
      ("count_2q", Json.Num (float_of_int s.count_2q));
      ("depth_2q", Json.Num (float_of_int s.depth_2q));
      ("wall_ms", Json.Num (s.wall_s *. 1e3));
    ]

(* Validate the request's raw "isa" member against the target registry.
   Both failure shapes the protocol documents — a non-string value and an
   unknown name — surface as bad_request at the compiler's stage. *)
let isa_of_json = function
  | None -> Ok None
  | Some v -> (
    match Json.str v with
    | None ->
      Error
        (Printf.sprintf "isa must be a string naming a target ISA (known targets: %s)"
           (String.concat ", " Isa.known_names))
    | Some name -> (
      match Isa.find name with
      | Some t -> Ok (Some t)
      | None ->
        Error
          (Printf.sprintf "unknown isa %S (known targets: %s)" name
             (String.concat ", " Isa.known_names))))

(* metrics under the target's own cost model: the lowered circuit's 2Q
   count / depth, with durations charged per the ISA (fixed basis-gate
   tau, or cycle-quantized slots for eqasm) *)
let isa_report (target : Isa.target) c =
  {
    Compiler.Metrics.count_2q = Circuit.count_2q c;
    depth_2q = Circuit.depth_2q c;
    duration = Isa.duration target c;
    distinct_2q = Circuit.distinct_2q c;
  }

let exec_compile t ~budget ~bench ~mode ~pulses ~passes ~isa =
  match
    List.find_opt (fun (b : Benchmarks.Suite.bench) -> b.name = bench) t.suite
  with
  | None ->
    Protocol.error_item ~kind:"bad_request" ~stage:"serve.compile"
      (Printf.sprintf "unknown benchmark %S" bench)
  | Some b -> (
    match isa_of_json isa with
    | Error msg -> Protocol.error_item ~kind:"bad_request" ~stage:Isa.stage msg
    | Ok target -> (
    let mode_v =
      match mode with
      | "full" -> Compiler.Pipeline.Full
      | "nc" -> Compiler.Pipeline.Nc
      | _ -> Compiler.Pipeline.Eff
    in
    let plan =
      match passes with
      | None -> Ok (Compiler.Passes.plan_of_mode mode_v)
      | Some names -> plan_of_passes names
    in
    (* the isa retargets whichever plan was selected: the default mode
       plan swaps mirroring for the lowering tail; a custom plan gets
       the tail appended *)
    let plan =
      match (plan, target) with
      | Error _, _ | _, None -> plan
      | Ok _, Some tgt when passes = None ->
        Ok (Compiler.Passes.plan_for_isa ~mode:mode_v tgt)
      | Ok p, Some tgt -> Ok (Compiler.Passes.with_isa p tgt)
    in
    match plan with
    | Error e -> Protocol.err_item e
    | Ok plan ->
    let rng = Numerics.Rng.create t.seed in
    match Compiler.Passes.compile_plan ~plan rng b.program with
    | Error e -> Protocol.err_item e
    | Ok (out, stats) ->
      let input = Compiler.Pipeline.program_to_cnot_input b.program in
      let base = Compiler.Metrics.report Compiler.Metrics.Cnot_isa input in
      let opt =
        match target with
        | Some tgt -> isa_report tgt out.Compiler.Pipeline.circuit
        | None ->
          Compiler.Metrics.report (Compiler.Metrics.Su4_isa xy)
            out.Compiler.Pipeline.circuit
      in
      let fields =
        [
          ("bench", Json.Str b.name);
          ("category", Json.Str b.category);
          ("qubits", Json.Num (float_of_int input.Circuit.n));
          ("mode", Json.Str mode);
          ("input", report_json base);
          ("compiled", report_json opt);
          ("mirrored", Json.Num (float_of_int out.Compiler.Pipeline.mirrored));
          ( "template_classes",
            Json.Num (float_of_int out.Compiler.Pipeline.template_classes) );
        ]
      in
      (* the isa field rides along only when requested, so default
         responses are byte-identical to before *)
      let fields =
        match target with
        | None -> fields
        | Some tgt -> fields @ [ ("isa", Json.Str tgt.Isa.name) ]
      in
      (* per-pass metrics ride along only when a custom plan was asked
         for, so default responses are byte-identical to before *)
      let fields =
        match passes with
        | None -> fields
        | Some _ -> fields @ [ ("passes", Json.Arr (List.map pass_stat_json stats)) ]
      in
      let fields =
        if not pulses then fields
        else begin
          (* per-gate verdicts: a failing gate degrades the report, not
             the request *)
          let outcomes = Reqisc.pulse_outcomes ?budget xy out.Compiler.Pipeline.circuit in
          let count k =
            List.length
              (List.filter
                 (fun (o : Reqisc.gate_outcome) -> Robust.Outcome.kind o.outcome = k)
                 outcomes)
          in
          fields
          @ [
              ( "pulses",
                Json.Obj
                  [
                    ("gates", Json.Num (float_of_int (List.length outcomes)));
                    ("solved", Json.Num (float_of_int (count "ok")));
                    ("degraded", Json.Num (float_of_int (count "degraded")));
                    ("failed", Json.Num (float_of_int (count "failed")));
                  ] );
            ]
        end
      in
      Protocol.ok_item ~op:"compile" (Json.Obj fields)))

(* -------------------------------------------------------------- stats *)

let exec_stats t =
  (* a cache installed by the embedding process (e.g. the bench harness)
     still shows up here *)
  let cache =
    match t.cache with Some _ as c -> c | None -> Microarch.Pulse_cache.installed ()
  in
  Protocol.ok_item ~op:"stats"
    (Json.Obj
       [
         ("uptime_seconds", Json.Num (Unix.gettimeofday () -. t.t0));
         ("served", Json.Num (float_of_int (Atomic.get t.served)));
         ("queue_depth", Json.Num (float_of_int (Jobq.length t.queue)));
         ("cache", Option.fold ~none:Json.Null ~some:Cache.stats_json cache);
         ("counters", Robust.Counters.to_json ());
         ("obs", Obs.Export.snapshot_json ());
       ])

(* ---------------------------------------------------------- dispatch *)

let rec exec_body ?remaining_s t (b : Protocol.body) =
  let budget = budget_of_spec ?remaining_s b.budget in
  match b.op with
  | Protocol.Stats -> exec_stats t
  | Protocol.Shutdown ->
    Protocol.ok_item ~op:"shutdown" (Json.Obj [ ("draining", Json.Bool true) ])
  | Protocol.Pulses { target; coupling; passes } ->
    exec_pulses t ~budget ~target ~coupling ~passes
  | Protocol.Compile { bench; mode; pulses; passes; isa } ->
    exec_compile t ~budget ~bench ~mode ~pulses ~passes ~isa
  | Protocol.Batch bodies ->
    (* inner items inherit the envelope's remaining-deadline clamp (the
       deadline covers the batch as a whole) on top of their own specs *)
    let results = List.map (exec_guarded ?remaining_s t) bodies in
    Protocol.ok_item ~op:"batch" (Json.Obj [ ("results", Json.Arr results) ])

(* a worker must survive anything a job throws *)
and exec_guarded ?remaining_s t b =
  match exec_body ?remaining_s t b with
  | r -> r
  | exception e ->
    Robust.Counters.incr ~stage "internal_error";
    Protocol.error_item ~kind:"internal_error" ~stage
      (Printf.sprintf "%s (op %s)" (Printexc.to_string e) (Protocol.op_name b.op))

let respond_counted t ~respond (response : Json.t) =
  let is_error = Json.mem_bool "ok" response = Some false in
  Atomic.incr t.served;
  if is_error then Atomic.incr t.errors;
  Robust.Counters.incr ~stage (if is_error then "response_error" else "response_ok");
  (* a respond closure bound to a dead connection may fail; the worker
     must survive that too (the response is simply undeliverable) *)
  try respond response
  with e ->
    Robust.Counters.incr ~stage "response_undeliverable";
    ignore (Printexc.to_string e)

let exec_item ?remaining_s t body =
  let name = "exec." ^ Protocol.op_name body.Protocol.op in
  Obs.Span.with_ ~stage ~name (fun () -> exec_guarded ?remaining_s t body)

(* ---------------------------------------------------------- deadlines *)

(* Decide, at dequeue time, whether [body]'s deadline has already passed.
   [`Expired item] is the typed refusal (the solver is never invoked);
   [`Run remaining_s] carries the wall clock left for the budget clamp.
   Timing uses {!Obs.Clock} directly — [Obs.Span.now_ns] is 0 without a
   sink, which must not turn every deadline into "expired at once". *)
let deadline_verdict ~enqueued_ns (b : Protocol.body) =
  match b.deadline_ms with
  | None -> `Run None
  | Some dl ->
    let elapsed_ms = float_of_int (Obs.Clock.now_ns () - enqueued_ns) /. 1e6 in
    if elapsed_ms >= dl then begin
      Robust.Counters.incr ~stage "deadline_exceeded";
      `Expired
        (Protocol.error_item ~kind:"deadline_exceeded" ~stage:"serve.deadline"
           (Printf.sprintf
              "deadline of %g ms exceeded (%.1f ms elapsed before execution)" dl
              elapsed_ms))
    end
    else `Run (Some ((dl -. elapsed_ms) /. 1e3))

(* retire a flight: unregister the key first (a duplicate arriving after
   this point starts a fresh flight — the result is not cached here, only
   shared among concurrent requesters), then fan the one id-less item out
   to every waiter, each under its own id. Failures fan out identically:
   every waiter sees the same typed error item. *)
let finish_flight t key item =
  Mutex.lock t.flight_lock;
  let waiters =
    match Hashtbl.find_opt t.flights key with
    | Some ws ->
      Hashtbl.remove t.flights key;
      List.rev !ws
    | None -> []
  in
  let inflight = Hashtbl.length t.flights in
  Mutex.unlock t.flight_lock;
  Robust.Counters.set_gauge ~stage:coalesce_stage "inflight" (float_of_int inflight);
  List.iter
    (fun w -> respond_counted t ~respond:w.respond (Protocol.with_id ~id:w.id item))
    waiters

let run_job t job =
  match job with
  | Direct { parsed; enqueued_ns; respond } -> (
    Obs.Span.emit ~stage ~name:"queue_wait" ~t0:enqueued_ns;
    match parsed.body with
    | Error msg ->
      respond_counted t ~respond
        (Protocol.error_response ~id:parsed.id ~kind:"bad_request"
           ~stage:"serve.protocol" msg)
    | Ok body -> (
      match deadline_verdict ~enqueued_ns body with
      | `Expired item ->
        respond_counted t ~respond (Protocol.with_id ~id:parsed.id item)
      | `Run remaining_s -> (
        match exec_item ?remaining_s t body with
        | Json.Obj _ as item ->
          respond_counted t ~respond (Protocol.with_id ~id:parsed.id item)
        | other -> respond_counted t ~respond other)))
  | Flight { key; body; enqueued_ns } -> (
    Obs.Span.emit ~stage ~name:"queue_wait" ~t0:enqueued_ns;
    match deadline_verdict ~enqueued_ns body with
    | `Expired item -> finish_flight t key item
    | `Run remaining_s -> finish_flight t key (exec_item ?remaining_s t body))

(* Supervised worker: [exec_guarded]/[respond_counted] already absorb
   per-job failures, so an exception escaping [run] means the worker
   machinery itself crashed (the [worker_crash] fault site, a Jobq bug,
   an out-of-memory, ...). The supervisor answers the in-flight request
   with a typed [internal_error] — fanning through the flight's waiter
   list so no coalesced client hangs either — counts the restart, and
   respawns the loop. A poisoned request can never shrink the pool. *)
let worker t () =
  let inflight : job option ref = ref None in
  let rec run () =
    match Jobq.pop t.queue with
    | None -> ()
    | Some job ->
      inflight := Some job;
      Robust.Counters.set_gauge ~stage "queue_depth" (float_of_int (Jobq.length t.queue));
      if Robust.Fault.enabled () && Robust.Fault.fire_p "worker_crash" then
        failwith "injected worker crash";
      run_job t job;
      inflight := None;
      run ()
  in
  let rec supervise () =
    match run () with
    | () -> ()
    | exception e ->
      let item =
        Protocol.error_item ~kind:"internal_error" ~stage:"serve.worker"
          (Printf.sprintf "worker crashed: %s (worker restarted)"
             (Printexc.to_string e))
      in
      (match !inflight with
      | Some (Direct { parsed; respond; _ }) ->
        respond_counted t ~respond (Protocol.with_id ~id:parsed.id item)
      | Some (Flight { key; _ }) -> finish_flight t key item
      | None -> ());
      inflight := None;
      Robust.Counters.incr ~stage "worker_restart";
      supervise ()
  in
  supervise ()

(* ---------------------------------------------------------- lifecycle *)

let create ?(workers = 0) ?(coalesce = true) ?cache ~seed () =
  (* the engine observes itself: if the embedding process has not
     installed a sink, record into our own ring so the span histograms
     in the [stats] op's "obs" block always have live data to report
     (counters and gauges count without a sink) *)
  let owned_recorder =
    if Obs.Sink.enabled () then None else Some (Obs.Recorder.start ())
  in
  Option.iter Microarch.Pulse_cache.install cache;
  let t =
    {
      seed;
      suite = Benchmarks.Suite.suite ~big:true ();
      cache;
      queue = Jobq.create ();
      coalesce;
      flight_lock = Mutex.create ();
      flights = Hashtbl.create 64;
      served = Atomic.make 0;
      errors = Atomic.make 0;
      t0 = Unix.gettimeofday ();
      owned_recorder;
      domains = [||];
    }
  in
  let workers = if workers > 0 then workers else max 1 (Numerics.Par.default_domains ()) in
  t.domains <- Array.init workers (fun _ -> Domain.spawn (worker t));
  t

(* Single-flight admission: a coalescable request whose key is already
   in flight (queued or executing) registers as a waiter on the existing
   flight instead of enqueueing a duplicate computation; the leader's
   fan-out answers everyone. Requests attach at submit time, so K
   identical requests racing into a busy engine cost one solver run. *)
let submit t (parsed : Protocol.parsed) ~respond =
  (* always the real clock, never the sink-gated [Obs.Span.now_ns]:
     deadline arithmetic must work in unobserved processes too *)
  let enqueued_ns = Obs.Clock.now_ns () in
  let direct () =
    ignore (Jobq.push t.queue (Direct { parsed; enqueued_ns; respond }))
  in
  (match parsed.body with
  | Ok body when t.coalesce -> (
    match Protocol.body_key body with
    | None -> direct ()
    | Some key -> (
      let w = { id = parsed.id; respond } in
      Mutex.lock t.flight_lock;
      match Hashtbl.find_opt t.flights key with
      | Some ws ->
        ws := w :: !ws;
        Mutex.unlock t.flight_lock;
        Robust.Counters.incr ~stage "coalesce_hit"
      | None ->
        Hashtbl.add t.flights key (ref [ w ]);
        let inflight = Hashtbl.length t.flights in
        Mutex.unlock t.flight_lock;
        Robust.Counters.incr ~stage:coalesce_stage "leader";
        Robust.Counters.set_gauge ~stage:coalesce_stage "inflight" (float_of_int inflight);
        if not (Jobq.push t.queue (Flight { key; body; enqueued_ns })) then begin
          (* lost the race with shutdown: nothing must execute, so the
             flight is unregistered (same drop semantics as a direct job
             behind a closed queue) *)
          Mutex.lock t.flight_lock;
          Hashtbl.remove t.flights key;
          Mutex.unlock t.flight_lock
        end))
  | _ -> direct ());
  Robust.Counters.set_gauge ~stage "queue_depth" (float_of_int (Jobq.length t.queue))

(* synchronous execution for embedders: the calling thread computes the
   response itself — no queue, no workers, no coalescing. Counted in
   [served]/[errors] exactly like a worker-produced response. *)
let exec_once t (parsed : Protocol.parsed) =
  let out = ref Json.Null in
  let respond r = out := r in
  (match parsed.body with
  | Error msg ->
    respond_counted t ~respond
      (Protocol.error_response ~id:parsed.id ~kind:"bad_request"
         ~stage:"serve.protocol" msg)
  | Ok body -> (
    match deadline_verdict ~enqueued_ns:(Obs.Clock.now_ns ()) body with
    | `Expired item ->
      respond_counted t ~respond (Protocol.with_id ~id:parsed.id item)
    | `Run remaining_s -> (
      match exec_item ?remaining_s t body with
      | Json.Obj _ as item ->
        respond_counted t ~respond (Protocol.with_id ~id:parsed.id item)
      | other -> respond_counted t ~respond other)));
  !out

let drain t =
  Jobq.close t.queue;
  Array.iter Domain.join t.domains;
  t.domains <- [||];
  if Option.is_some t.cache then Microarch.Pulse_cache.uninstall ();
  Option.iter Cache.close t.cache;
  Option.iter Obs.Recorder.stop t.owned_recorder

let served t = Atomic.get t.served
let errors t = Atomic.get t.errors
let queue_depth t = Jobq.length t.queue
