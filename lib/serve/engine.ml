let stage = "serve"
let coalesce_stage = "serve.coalesce"

(* one requester awaiting a response: the id to attach and the closure
   routing it back to wherever the request came from *)
type waiter = { id : Json.t; respond : Json.t -> unit }

(* one execution, answered to every waiter it holds. A flight with a
   [key] is registered in [flights] until it finishes, so concurrent
   requests with an identical body join it instead of executing again;
   a flight without one (a parse error, shutdown, batch, or any request
   on an uncoalesced engine) answers only the request that started it.
   [waiters] is guarded by [flight_lock] while the key is registered. *)
type flight = {
  key : string option;
  body : (Protocol.body, string) result;
  enqueued_ns : int;
  mutable waiters : waiter list;
}

type t = {
  seed : int64;
  suite : Benchmarks.Suite.bench list;
  cache : Cache.t option;
  queue : flight Jobq.t;
  coalesce : bool;
  flight_lock : Mutex.t;
  flights : (string, flight) Hashtbl.t;
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

let pulse_json (p : Microarch.Genashn.pulse) (info : Robust.Outcome.info option) =
  let verdict, extra =
    match info with
    | None -> ("ok", [])
    | Some i ->
      ( "degraded",
        [
          ("residual", Json.Num i.residual);
          ("retries", Json.Num (float_of_int i.retries));
          ("note", Json.Str i.note);
        ] )
  in
  let a1, a2 = Microarch.Genashn.amplitudes p in
  Json.Obj
    ([
       ("verdict", Json.Str verdict);
       ("mode", Json.Str (Microarch.Tau.subscheme_to_string p.subscheme));
       ("tau", Json.Num p.tau);
       ("a1", Json.Num a1);
       ("a2", Json.Num a2);
       ("delta", Json.Num p.delta);
     ]
    @ extra)

(* the ["class"] and ["pulse"] fields of one solver verdict; a failed
   verdict is its typed error *)
let verdict_fields = function
  | Robust.Outcome.Failed e -> Error e
  | Robust.Outcome.Solved (c, p) ->
    Ok [ ("class", Json.Str (Weyl.Coords.to_string c)); ("pulse", pulse_json p None) ]
  | Robust.Outcome.Degraded ((c, p), i) ->
    Ok [ ("class", Json.Str (Weyl.Coords.to_string c)); ("pulse", pulse_json p (Some i)) ]

let solve_gate ?budget coupling g =
  Robust.Outcome.map
    (fun (r : Microarch.Genashn.result) -> (r.coords, r.pulse))
    (Microarch.Genashn.solve_r ?budget coupling g)

(* the request's custom plan; parse-time validation makes this
   infallible, but keep the typed error path anyway *)
let plan_of_passes names = Compiler.Passes.of_names ~name:"request" names

(* every compile a request asks for starts from the engine seed, so equal
   requests compile to equal bytes; a failing pass is its typed error item *)
let compile t ~plan program =
  Result.map_error Protocol.err_item
    (Compiler.Passes.compile_plan ~plan (Numerics.Rng.create t.seed) program)

(* pulses for a gate target compiled through a custom plan: run the
   one-gate circuit through the plan, then Algorithm 1 per remaining 2Q
   gate (the plan may split, relabel, or mirror the gate) *)
let exec_pulses_plan t ~budget ~coupling ~name ~mat names =
  match plan_of_passes names with
  | Error e -> Protocol.err_item e
  | Ok plan -> (
    let circuit = Circuit.create 2 [ Gate.su4 0 1 mat ] in
    match compile t ~plan (Compiler.Pass.Gates circuit) with
    | Error item -> item
    | Ok (out, _) -> (
      let gates =
        List.filter Gate.is_2q out.Compiler.Passes.circuit.Circuit.gates
      in
      let rec solve acc = function
        | [] -> Ok (List.rev acc)
        | (g : Gate.t) :: rest -> (
          match verdict_fields (solve_gate ?budget coupling g) with
          | Error e -> Error e
          | Ok fields -> solve (Json.Obj fields :: acc) rest)
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
  let respond head oc =
    match verdict_fields oc with
    | Error e -> Protocol.err_item e
    | Ok fields -> Protocol.ok_item ~op:"pulses" (Json.Obj (head @ fields))
  in
  match target with
  | Protocol.Gate name -> (
    match Quantum.Gates.of_name name with
    | None ->
      Protocol.error_item ~kind:"bad_request" ~stage:"serve.pulses"
        (Printf.sprintf "unknown gate %S (expected %s)" name
           (String.concat "|" Quantum.Gates.named_2q))
    | Some mat when passes <> None ->
      exec_pulses_plan t ~budget ~coupling ~name ~mat (Option.get passes)
    | Some mat ->
      respond [ ("gate", Json.Str name) ] (solve_gate ?budget coupling (Gate.su4 0 1 mat)))
  | Protocol.Coords (x, y, z) ->
    let c = Weyl.Coords.make x y z in
    if not (Weyl.Coords.in_chamber ~tol:1e-9 c) then
      Protocol.error_item ~kind:"bad_request" ~stage:"serve.pulses"
        (Printf.sprintf "coords %s are outside the canonical Weyl chamber"
           (Weyl.Coords.to_string c))
    else
      respond []
        (Robust.Outcome.map (fun p -> (c, p))
           (Microarch.Genashn.solve_coords_r ?budget coupling c))

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
    let custom =
      match passes with
      | None -> Ok None
      | Some names -> Result.map Option.some (plan_of_passes names)
    in
    match custom with
    | Error e -> Protocol.err_item e
    | Ok custom ->
    let plan = Compiler.Passes.resolve_plan ~mode ~plan:custom ~isa:target in
    match compile t ~plan b.program with
    | Error item -> item
    | Ok (out, stats) ->
      let input = Compiler.Pass.program_to_cnot_input b.program in
      let base = Compiler.Metrics.report Compiler.Metrics.Cnot_isa input in
      let isa =
        match target with
        | Some tgt -> Compiler.Metrics.Target tgt
        | None -> Compiler.Metrics.Su4_isa xy
      in
      let opt = Compiler.Metrics.report isa out.Compiler.Passes.circuit in
      let fields =
        [
          ("bench", Json.Str b.name);
          ("category", Json.Str b.category);
          ("qubits", Json.Num (float_of_int input.Circuit.n));
          ("mode", Json.Str (Compiler.Passes.plan_of_mode mode).plan_name);
          ("input", report_json base);
          ("compiled", report_json opt);
          ("mirrored", Json.Num (float_of_int out.Compiler.Passes.mirrored));
          ( "template_classes",
            Json.Num (float_of_int out.Compiler.Passes.template_classes) );
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
          let outcomes = Reqisc.pulse_outcomes ?budget xy out.Compiler.Passes.circuit in
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

(* The one answer function: the id-less reply to a parsed body (the
   bad_request for a parse error, the typed refusal of an expired
   deadline, or the executed op). Workers and [exec_once] both call it. *)
let answer t ~enqueued_ns = function
  | Error msg -> Protocol.error_item ~kind:"bad_request" ~stage:"serve.protocol" msg
  | Ok body -> (
    match deadline_verdict ~enqueued_ns body with
    | `Expired item -> item
    | `Run remaining_s ->
      let name = "exec." ^ Protocol.op_name body.op in
      Obs.Span.with_ ~stage ~name (fun () -> exec_guarded ?remaining_s t body))

(* hand [item] to one waiter under its own id, counted in
   [served]/[errors] *)
let deliver t item w =
  let response = Protocol.with_id ~id:w.id item in
  let is_error = Json.mem_bool "ok" response = Some false in
  Atomic.incr t.served;
  if is_error then Atomic.incr t.errors;
  Robust.Counters.incr ~stage (if is_error then "response_error" else "response_ok");
  (* a respond closure bound to a dead connection may fail; the worker
     must survive that too (the response is simply undeliverable) *)
  try w.respond response
  with e ->
    Robust.Counters.incr ~stage "response_undeliverable";
    ignore (Printexc.to_string e)

(* retire a flight: unregister the key first (a duplicate arriving after
   this point starts a fresh flight — the result is not cached here, only
   shared among concurrent requesters), then fan the one id-less item out
   to every waiter, each under its own id. Failures fan out identically:
   every waiter sees the same typed error item. The waiter list is taken
   once, so a flight is never answered twice. *)
let finish t f item =
  Mutex.lock t.flight_lock;
  Option.iter (Hashtbl.remove t.flights) f.key;
  let waiters = List.rev f.waiters in
  f.waiters <- [];
  let inflight = Hashtbl.length t.flights in
  Mutex.unlock t.flight_lock;
  if Option.is_some f.key then
    Robust.Counters.set_gauge ~stage:coalesce_stage "inflight" (float_of_int inflight);
  List.iter (deliver t item) waiters

(* Supervised worker: [exec_guarded]/[deliver] already absorb
   per-job failures, so an exception escaping [run] means the worker
   machinery itself crashed (the [worker_crash] fault site, a Jobq bug,
   an out-of-memory, ...). The supervisor answers the in-flight flight's
   waiters with a typed [internal_error] — so no coalesced client hangs
   either — counts the restart, and respawns the loop. A poisoned
   request can never shrink the pool. *)
let worker t () =
  let inflight = ref None in
  let rec run () =
    match Jobq.pop t.queue with
    | None -> ()
    | Some f ->
      inflight := Some f;
      Robust.Counters.set_gauge ~stage "queue_depth" (float_of_int (Jobq.length t.queue));
      if Robust.Fault.enabled () && Robust.Fault.fire_p "worker_crash" then
        failwith "injected worker crash";
      Obs.Span.emit ~stage ~name:"queue_wait" ~t0:f.enqueued_ns;
      finish t f (answer t ~enqueued_ns:f.enqueued_ns f.body);
      inflight := None;
      run ()
  in
  let rec supervise () =
    match run () with
    | () -> ()
    | exception e ->
      Option.iter
        (fun f ->
          finish t f
            (Protocol.error_item ~kind:"internal_error" ~stage:"serve.worker"
               (Printf.sprintf "worker crashed: %s (worker restarted)"
                  (Printexc.to_string e))))
        !inflight;
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

(* Single-flight admission: a request whose key is already in flight
   (queued or executing) registers as a waiter on the existing flight
   instead of enqueueing a duplicate computation; the leader's fan-out
   answers everyone. Requests attach at submit time, so K identical
   requests racing into a busy engine cost one solver run. *)
let submit t (parsed : Protocol.parsed) ~respond =
  (* always the real clock, never the sink-gated [Obs.Span.now_ns]:
     deadline arithmetic must work in unobserved processes too *)
  let enqueued_ns = Obs.Clock.now_ns () in
  let w = { id = parsed.id; respond } in
  let key =
    match parsed.body with Ok body when t.coalesce -> Protocol.body_key body | _ -> None
  in
  let f = { key; body = parsed.body; enqueued_ns; waiters = [ w ] } in
  (match key with
  | None -> ignore (Jobq.push t.queue f)
  | Some k -> (
    Mutex.lock t.flight_lock;
    match Hashtbl.find_opt t.flights k with
    | Some leader ->
      leader.waiters <- w :: leader.waiters;
      Mutex.unlock t.flight_lock;
      Robust.Counters.incr ~stage "coalesce_hit"
    | None ->
      Hashtbl.add t.flights k f;
      let inflight = Hashtbl.length t.flights in
      Mutex.unlock t.flight_lock;
      Robust.Counters.incr ~stage:coalesce_stage "leader";
      Robust.Counters.set_gauge ~stage:coalesce_stage "inflight" (float_of_int inflight);
      if not (Jobq.push t.queue f) then begin
        (* lost the race with shutdown: nothing must execute, so the
           flight is unregistered (same drop semantics as an unkeyed
           flight behind a closed queue) *)
        Mutex.lock t.flight_lock;
        Hashtbl.remove t.flights k;
        Mutex.unlock t.flight_lock
      end));
  Robust.Counters.set_gauge ~stage "queue_depth" (float_of_int (Jobq.length t.queue))

(* synchronous execution for embedders: the calling thread computes the
   response itself — no queue, no workers, no coalescing. Counted in
   [served]/[errors] exactly like a worker-produced response. *)
let exec_once t (parsed : Protocol.parsed) =
  let out = ref Json.Null in
  deliver t
    (answer t ~enqueued_ns:(Obs.Clock.now_ns ()) parsed.body)
    { id = parsed.id; respond = (fun r -> out := r) };
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
