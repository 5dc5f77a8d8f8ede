open Numerics

type pulse = {
  tau : float;
  subscheme : Tau.subscheme;
  drive_x1 : float;
  drive_x2 : float;
  delta : float;
}

type result = {
  pulse : pulse;
  coords : Weyl.Coords.t;
  realized : Mat.t;
  a1 : Mat.t;
  a2 : Mat.t;
  b1 : Mat.t;
  b2 : Mat.t;
}

let amplitudes p = (-2.0 *. p.drive_x1, -2.0 *. p.drive_x2)

let amplitude_penalty p =
  Float.abs p.drive_x1 +. Float.abs p.drive_x2 +. Float.abs p.delta

let xi = Mat.kron (Quantum.Pauli.matrix_1q Quantum.Pauli.X) (Mat.identity 2)
let ix = Mat.kron (Mat.identity 2) (Quantum.Pauli.matrix_1q Quantum.Pauli.X)
let zi = Mat.kron (Quantum.Pauli.matrix_1q Quantum.Pauli.Z) (Mat.identity 2)
let iz = Mat.kron (Mat.identity 2) (Quantum.Pauli.matrix_1q Quantum.Pauli.Z)
let zz_drive = Mat.add zi iz

(* dst <- hm + x1*XI + x2*IX + delta*(ZI+IZ), where [hm] is the bare
   coupling matrix; allocation-free (axpy on the SoA planes). *)
let hamiltonian_into ~dst ~hm p =
  Mat.copy_into ~dst hm;
  Mat.axpy ~alpha:p.drive_x1 xi dst;
  Mat.axpy ~alpha:p.drive_x2 ix dst;
  Mat.axpy ~alpha:p.delta zz_drive dst

let hamiltonian (h : Coupling.t) p =
  let dst = Mat.create 4 4 in
  hamiltonian_into ~dst ~hm:(Coupling.matrix h) p;
  dst

let evolve h p = Expm.herm_expi (hamiltonian h p) ~t:p.tau

(* Reusable buffers for the EA residual loops: one Hamiltonian matrix, one
   evolution matrix and one expm workspace, so each residual evaluation in
   the grid + Newton search allocates nothing. *)
type ea_buf = { hm : Mat.t; ham : Mat.t; u : Mat.t; ws : Expm.ws }

let make_ea_buf (h : Coupling.t) =
  let hm = Coupling.matrix h in
  (* fault site "ham_perturb": skew the solver's cached coupling matrix by
     param * XI so the search solves a slightly wrong problem — the
     end-to-end class check then catches it and drives the retry ladder *)
  if Robust.Fault.enabled () && Robust.Fault.fire "ham_perturb" then
    Mat.axpy ~alpha:(Robust.Fault.param "ham_perturb" ~default:1e-2) xi hm;
  { hm; ham = Mat.create 4 4; u = Mat.create 4 4; ws = Expm.make_ws 4 }

(* ---------------------------------------------------------- tolerances *)

(* Strict class tolerance: unchanged from the original solver — a realized
   evolution within 1e-6 of the target Weyl point is a clean solve. The
   loose tolerance bounds what we are willing to return as [Degraded]
   (best-effort, residual reported) instead of failing outright. *)
let strict_class_tol = 1e-6
let loose_class_tol = 1e-3

(* Trace-residual bound under which a rejected EA root still qualifies as a
   degraded candidate worth the end-to-end check. *)
let ea_loose_residual = 1e-4

(* ------------------------------------------------------------------ ND *)

(* Smallest S >= s0 with  s0' * sin(S tau) / S = target  where s0' = b -+ c.
   Returns S (and hence Ω = sqrt(S^2 - s0^2) / 2). [span_pi]/[steps] widen
   the scan window for the retry rung (defaults match the original search:
   the root density is ~ pi / tau). *)
let solve_sinc ?(span_pi = 40.0) ?(steps = 4000) ~tau ~s0 ~target () =
  if s0 < 1e-12 then
    (* coupling component vanishes; face forces target = 0, no drive needed *)
    if Float.abs target < 1e-9 then Some s0 else None
  else begin
    let f s = (s0 *. sin (s *. tau) /. s) -. target in
    if Float.abs (f s0) < 1e-12 then Some s0
    else
      (* scan for the first sign change *)
      let hi = s0 +. (span_pi *. Float.pi /. tau) in
      Roots.smallest_root_above ~tol:1e-15 f ~lo:s0 ~hi ~steps
  end

let nd_stage = "solver.nd"

let solve_nd_r (h : Coupling.t) (x, y, z) tau =
  ignore x;
  let u = y +. z and v = y -. z in
  let attempt ?(span_name = "nd.scan") ?span_pi ?steps () =
   Obs.Span.with_ ~stage:"solver" ~name:span_name @@ fun () ->
    let s2 = solve_sinc ?span_pi ?steps ~tau ~s0:(h.b +. h.c) ~target:(sin u) () in
    let s1 = solve_sinc ?span_pi ?steps ~tau ~s0:(h.b -. h.c) ~target:(sin v) () in
    match (s1, s2) with
    | Some s1, Some s2 ->
      let omega1 = 0.5 *. sqrt (Float.max 0.0 ((s1 *. s1) -. ((h.b -. h.c) ** 2.0))) in
      let omega2 = 0.5 *. sqrt (Float.max 0.0 ((s2 *. s2) -. ((h.b +. h.c) ** 2.0))) in
      Some
        {
          tau;
          subscheme = Tau.ND;
          drive_x1 = omega1 +. omega2;
          drive_x2 = omega1 -. omega2;
          delta = 0.0;
        }
    | _ -> None
  in
  let first =
    if Robust.Fault.enabled () && Robust.Fault.fire "nd_noconv" then None
    else attempt ()
  in
  match first with
  | Some p ->
    Robust.Counters.incr ~stage:nd_stage "ok";
    Robust.Outcome.Solved p
  | None -> (
    (* retry rung: triple the scan window for the first sinc sign change *)
    Robust.Counters.incr ~stage:nd_stage "retry";
    match attempt ~span_name:"nd.widen" ~span_pi:120.0 ~steps:12000 () with
    | Some p ->
      Robust.Counters.incr ~stage:nd_stage "ok";
      Robust.Outcome.Solved p
    | None ->
      Robust.Counters.incr ~stage:nd_stage "failed";
      Robust.Outcome.Failed
        (Robust.Err.Non_convergence
           {
             stage = nd_stage;
             target = Some (x, y, z);
             iterations = 2;
             residual = Float.infinity;
           }))

(* ------------------------------------------------------------------ EA *)

let yy = Quantum.Pauli.yy

(* Sum of the canonicalized target spectrum (appendix eq. 45). *)
let target_trace (x, y, z) =
  let open Cx in
  neg (expi (x +. y +. z))
  +: expi (x -. y -. z)
  -: expi (-.x +. y -. z)
  +: expi (-.x -. y +. z)

(* Residual of the same-sign EA scheme under coupling [h]: the trace of
   exp(-i tau H_EA) . YY minus the target spectrum sum. Even in both Ω and
   delta, so the search can stay in the first quadrant. *)
let ea_residual ?buf (h : Coupling.t) target tau (omega, delta) =
  let p = { tau; subscheme = Tau.EA_same; drive_x1 = omega; drive_x2 = omega; delta } in
  let b = match buf with Some b -> b | None -> make_ea_buf h in
  hamiltonian_into ~dst:b.ham ~hm:b.hm p;
  Expm.herm_expi_into b.ws ~dst:b.u b.ham ~t:tau;
  Cx.( -: ) (Mat.trace_mul b.u yy) (target_trace target)

(* All distinct EA roots found by the grid + Newton search (used by the
   Fig. 4 reproduction); (omega, delta) pairs in the first quadrant. *)
let ea_all_roots (h : Coupling.t) target tau =
  let buf = make_ea_buf h in
  let res om de = ea_residual ~buf h target tau (om, de) in
  let res2 (om, de) =
    let r = res om de in
    (Cx.re r, Cx.im r)
  in
  let scale = Coupling.strength h in
  let seeds = ref [] in
  let n = 24 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let map k = scale *. (float_of_int k /. float_of_int n /. (1.0 -. (float_of_int k /. float_of_int n))) in
      let om = map i and de = map j in
      seeds := (Cx.norm (res om de), om, de) :: !seeds
    done
  done;
  let sorted = List.sort compare !seeds in
  let roots = ref [] in
  List.iteri
    (fun i (_, om, de) ->
      if i < 40 then
        match Roots.newton2d ~tol:1e-10 res2 (om, de) with
        | Some (om', de') ->
          let om' = Float.abs om' and de' = Float.abs de' in
          if
            Cx.norm (res om' de') < 1e-10
            && not
                 (List.exists
                    (fun (o, d) -> Float.abs (o -. om') < 1e-4 && Float.abs (d -. de') < 1e-4)
                    !roots)
          then roots := (om', de') :: !roots
        | None -> ())
    sorted;
  List.sort compare !roots

(* ------------------------------------------------------- EA retry ladder *)

let ea_stage = "solver.ea"

(* One rung of the deterministic retry ladder. The baseline rung reproduces
   the original single-shot search bit for bit (same seed grid, same Newton
   candidate count, same Nelder-Mead fallback); later rungs jitter the seed
   grid by half a cell, widen the compactified search window, and finally
   escalate to a long derivative-free polish. *)
type ea_rung = {
  rung_name : string;
  grid_n : int; (* seed grid resolution *)
  jitter : float; (* seed offset, in grid cells *)
  widen : float; (* multiplier on the compactified omega/delta window *)
  newton_top : int; (* best seeds polished by damped Newton *)
  nm_top : int; (* best seeds given the Nelder-Mead fallback *)
  nm_iter : int;
}

let ea_rungs =
  [
    { rung_name = "baseline"; grid_n = 20; jitter = 0.0; widen = 1.0;
      newton_top = 8; nm_top = 4; nm_iter = 4000 };
    { rung_name = "reseed"; grid_n = 20; jitter = 0.5; widen = 1.0;
      newton_top = 8; nm_top = 4; nm_iter = 4000 };
    { rung_name = "widen"; grid_n = 32; jitter = 0.0; widen = 2.5;
      newton_top = 12; nm_top = 6; nm_iter = 4000 };
    { rung_name = "nelder-mead"; grid_n = 24; jitter = 0.25; widen = 1.5;
      newton_top = 0; nm_top = 8; nm_iter = 20000 };
  ]

let ea_pulse tau (om, de) =
  { tau; subscheme = Tau.EA_same; drive_x1 = om; drive_x2 = om; delta = de }

(* Runs one rung; [note_best] observes every polished candidate (accepted or
   not) so the ladder can fall back to a degraded best-effort answer.
   Returns the (omega, delta) pair of minimal implementation penalty among
   the strict roots found, and the number of residual evaluations spent. *)
let run_ea_rung buf h target tau spec ~note_best =
  let evals = ref 0 in
  let res om de =
    incr evals;
    ea_residual ~buf h target tau (om, de)
  in
  let res2 (om, de) =
    let r = res om de in
    (Cx.re r, Cx.im r)
  in
  let scale = Coupling.strength h in
  (* compactified seed grid: v/(1-v) covers the first quadrant *)
  let sorted =
    Obs.Span.with_ ~stage:"solver" ~name:"ea.grid" @@ fun () ->
    let seeds = ref [] in
    let n = spec.grid_n in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        let map k =
          let v = (float_of_int k +. spec.jitter) /. float_of_int n in
          spec.widen *. scale *. (v /. (1.0 -. v))
        in
        let om = map i and de = map j in
        let r = Cx.norm (res om de) in
        seeds := (r, om, de) :: !seeds
      done
    done;
    List.sort compare !seeds
  in
  let candidates = List.filteri (fun i _ -> i < spec.newton_top) sorted in
  let solutions =
    Obs.Span.with_ ~stage:"solver" ~name:"ea.newton" @@ fun () ->
    List.filter_map
      (fun (_, om, de) ->
        match Roots.newton2d ~tol:1e-10 res2 (om, de) with
        | Some (om', de') ->
          let om' = Float.abs om' and de' = Float.abs de' in
          let r = Cx.norm (res om' de') in
          note_best om' de' r;
          if r < 1e-10 then Some (om', de') else None
        | None -> None)
      candidates
  in
  (* fall back to a derivative-free polish of the best seeds *)
  let solutions =
    if solutions <> [] then solutions
    else
      Obs.Span.with_ ~stage:"solver" ~name:"ea.nelder_mead" @@ fun () ->
      List.filter_map
        (fun (_, om, de) ->
          let f v = Cx.norm2 (res (Float.abs v.(0)) (Float.abs v.(1))) in
          let v, fv =
            Optimize.nelder_mead ~step:(0.1 *. scale) ~max_iter:spec.nm_iter f [| om; de |]
          in
          match Roots.newton2d ~tol:1e-10 res2 (Float.abs v.(0), Float.abs v.(1)) with
          | Some (om', de') ->
            let om' = Float.abs om' and de' = Float.abs de' in
            let r = Cx.norm (res om' de') in
            note_best om' de' r;
            if r < 1e-9 then Some (om', de') else None
          | None ->
            note_best (Float.abs v.(0)) (Float.abs v.(1)) (sqrt fv);
            None)
        (List.filteri (fun i _ -> i < spec.nm_top) sorted)
  in
  let penalty root = amplitude_penalty (ea_pulse tau root) in
  let best =
    List.fold_left
      (fun acc root ->
        match acc with
        | Some b when penalty b <= penalty root -> acc
        | _ -> Some root)
      None solutions
  in
  (best, !evals)

(* Walk the ladder under the budget. Outcomes:
   - [Solved pulse] when a rung finds a strict root (minimal penalty);
   - [Degraded (pulse, info)] when no rung converged but the best polished
     candidate's residual is below [ea_loose_residual];
   - [Failed] with [Budget_exceeded] or [Non_convergence] otherwise. *)
let solve_ea_same_r ?budget (h : Coupling.t) target tau =
  let best_seen = ref None in
  let note_best om de r =
    if Float.is_nan r then ()
    else
      match !best_seen with
      | Some (r0, _, _) when r0 <= r -> ()
      | _ -> best_seen := Some (r, om, de)
  in
  let best_residual () =
    match !best_seen with Some (r, _, _) -> r | None -> Float.infinity
  in
  let spent = ref 0 in
  let rec go rungs retries =
    match rungs with
    | [] ->
      let residual = best_residual () in
      if residual < ea_loose_residual then begin
        Robust.Counters.incr ~stage:ea_stage "degraded";
        let _, om, de = Option.get !best_seen in
        Robust.Outcome.Degraded
          ( ea_pulse tau (om, de),
            { Robust.Outcome.residual; retries; note = "best-effort EA root" } )
      end
      else begin
        Robust.Counters.incr ~stage:ea_stage "failed";
        Robust.Outcome.Failed
          (Robust.Err.Non_convergence
             { stage = ea_stage; target = Some target; iterations = !spent; residual })
      end
    | spec :: rest -> (
      let budget_status =
        match budget with
        | None -> Ok ()
        | Some b -> Robust.Budget.check b ~stage:ea_stage ~residual:(best_residual ())
      in
      match budget_status with
      | Error e ->
        Robust.Counters.incr ~stage:ea_stage "budget_exceeded";
        Robust.Outcome.Failed e
      | Ok () ->
        if retries > 0 then Robust.Counters.incr ~stage:ea_stage "retry";
        (* fault site "ea_noconv": pretend this rung found nothing *)
        let root, evals =
          if Robust.Fault.enabled () && Robust.Fault.fire "ea_noconv" then (None, 0)
          else
            Obs.Span.with_ ~stage:"solver" ~name:("ea." ^ spec.rung_name) (fun () ->
                let buf = make_ea_buf h in
                run_ea_rung buf h target tau spec ~note_best)
        in
        spent := !spent + evals;
        Option.iter (fun b -> Robust.Budget.spend b evals) budget;
        (match root with
        | Some (om, de) ->
          Robust.Counters.incr ~stage:ea_stage "ok";
          if retries > 0 then
            Robust.Outcome.Degraded
              ( ea_pulse tau (om, de),
                {
                  Robust.Outcome.residual = 0.0;
                  retries;
                  note = Printf.sprintf "recovered on rung %S" spec.rung_name;
                } )
          else Robust.Outcome.Solved (ea_pulse tau (om, de))
        | None -> go rest (retries + 1)))
  in
  go ea_rungs 0

let solve_ea_opposite_r ?budget (h : Coupling.t) (x, y, z) tau =
  (* Corollary 4: EA- for (x,y,z) under H[a,b,c] is EA+ for (x,y,-z) under
     H[a,b,-c], with the detuning negated and opposite-sign amplitudes. *)
  let h' = Coupling.make h.a h.b (-.h.c) in
  Robust.Outcome.map
    (fun p ->
      {
        tau;
        subscheme = Tau.EA_opposite;
        drive_x1 = p.drive_x1;
        drive_x2 = -.p.drive_x1;
        delta = -.p.delta;
      })
    (solve_ea_same_r ?budget h' (x, y, -.z) tau)

(* ---------------------------------------------------------------- main *)

let stage = "genashn"

(* ------------------------------------------------- pulse-synthesis cache *)

(* Canonical cache key: coupling normal-form coefficients + quantized Weyl
   coordinates (quantum 1e-9, well below the 1e-6 strict class tolerance).
   The version tag also pins the solver settings (ladder shape, tolerances):
   bump it whenever those change. The optimal duration and subscheme are
   deterministic functions of (h, coords), so they need not be keyed. *)
let cache_fingerprint (h : Coupling.t) (c : Weyl.Coords.t) =
  let fp = Cache.Fingerprint.create "genashn.pulse.v1" in
  Cache.Fingerprint.(key (floats fp [| h.a; h.b; h.c; c.x; c.y; c.z |]))

let scheme_tag = function Tau.ND -> 0 | Tau.EA_same -> 1 | Tau.EA_opposite -> 2
let scheme_of_tag = function 1 -> Tau.EA_same | 2 -> Tau.EA_opposite | _ -> Tau.ND

(* A stored verdict replayed with its tail: the unitary the pulse
   realizes and that unitary's KAK, the same pure function of the
   coupling and the pulse the solver's end-to-end check computes, so a
   replay carries the bits of the solve that stored it. *)
let cache_replay (h : Coupling.t) (e : Pulse_cache.entry) =
  let p =
    {
      tau = e.tau;
      subscheme = scheme_of_tag e.scheme;
      drive_x1 = e.x1;
      drive_x2 = e.x2;
      delta = e.delta;
    }
  in
  let realized = evolve h p in
  match Weyl.Kak.decompose_r realized with
  | Error err ->
    Robust.Counters.incr ~stage "failed";
    Robust.Outcome.Failed err
  | Ok kak ->
    if e.solved then Robust.Outcome.Solved (p, realized, kak)
    else
      Robust.Outcome.Degraded
        ((p, realized, kak), { Robust.Outcome.residual = e.residual; retries = e.retries; note = e.note })

let cache_store key (oc : (pulse * _ * _) Robust.Outcome.t) =
  let entry solved (p : pulse) residual retries note =
    {
      Pulse_cache.solved;
      scheme = scheme_tag p.subscheme;
      tau = p.tau;
      x1 = p.drive_x1;
      x2 = p.drive_x2;
      delta = p.delta;
      residual;
      retries;
      note;
    }
  in
  match oc with
  | Robust.Outcome.Solved (p, _, _) -> Pulse_cache.store key (entry true p 0.0 0 "")
  | Robust.Outcome.Degraded ((p, _, _), i) ->
    Pulse_cache.store key
      (entry false p i.Robust.Outcome.residual i.Robust.Outcome.retries
         i.Robust.Outcome.note)
  | Robust.Outcome.Failed _ -> ()

let finite = Float.is_finite

let validate (h : Coupling.t) (coords : Weyl.Coords.t) =
  if not (finite h.a && finite h.b && finite h.c) then
    Error (Robust.Err.Nan_detected { stage; site = "coupling" })
  else if not (finite coords.x && finite coords.y && finite coords.z) then
    Error (Robust.Err.Nan_detected { stage; site = "target coords" })
  else if Coupling.strength h < 1e-9 then
    Error
      (Robust.Err.Invalid_hamiltonian
         { stage; detail = "coupling strength below 1e-9 (no entangling dynamics)" })
  else Ok ()

let solve_coords_uncached ?budget (h : Coupling.t) (coords : Weyl.Coords.t) =
  (
    Robust.Counters.incr ~stage "solve_run";
    let { Tau.tau; target_plus; subscheme } = Tau.plan h coords in
    if not (finite tau) then begin
      Robust.Counters.incr ~stage "failed";
      Robust.Outcome.Failed
        (Robust.Err.Invalid_hamiltonian { stage; detail = "non-finite optimal duration" })
    end
    else begin
      let attempt =
        match subscheme with
        | Tau.ND -> solve_nd_r h target_plus tau
        | Tau.EA_same -> solve_ea_same_r ?budget h target_plus tau
        | Tau.EA_opposite -> solve_ea_opposite_r ?budget h target_plus tau
      in
      match attempt with
      | Robust.Outcome.Failed e ->
        Robust.Counters.incr ~stage "failed";
        Robust.Outcome.Failed e
      | (Robust.Outcome.Solved p | Robust.Outcome.Degraded (p, _)) as oc -> (
        (* end-to-end check: the evolution really lands in the target class.
           Its unitary and KAK are the class-determined tail of [solve_r],
           so the outcome carries them. *)
        let realized = evolve h p in
        match Weyl.Kak.decompose_r realized with
        | Error e ->
          Robust.Counters.incr ~stage "failed";
          Robust.Outcome.Failed e
        | Ok kak ->
          let d = Weyl.Coords.dist kak.Weyl.Kak.coords coords in
          let tail = (p, realized, kak) in
          let retries =
            match oc with Robust.Outcome.Degraded (_, i) -> i.retries | _ -> 0
          in
          if d < strict_class_tol && retries = 0 then begin
            Robust.Counters.incr ~stage "ok";
            Robust.Outcome.Solved tail
          end
          else if d < strict_class_tol then begin
            (* recovered by a retry rung: correct answer, flagged as such *)
            Robust.Counters.incr ~stage "ok";
            Robust.Outcome.Degraded
              (tail, { Robust.Outcome.residual = d; retries; note = "recovered after retries" })
          end
          else if d < loose_class_tol then begin
            Robust.Counters.incr ~stage "degraded";
            Robust.Outcome.Degraded
              ( tail,
                {
                  Robust.Outcome.residual = d;
                  retries;
                  note = "realized class within loose tolerance only";
                } )
          end
          else begin
            Robust.Counters.incr ~stage "failed";
            Robust.Outcome.Failed
              (Robust.Err.Non_convergence
                 {
                   stage;
                   target = Some (coords.x, coords.y, coords.z);
                   iterations =
                     (match budget with Some b -> Robust.Budget.iterations b | None -> 0);
                   residual = d;
                 })
          end)
    end)

(* The installed pulse cache, then the solver: a hit replays the stored
   verdict bit for bit and skips Algorithm 1 (no grid, no Newton; the
   pulse was verified when it was stored), a miss solves and stores.
   With no cache installed, the lookup misses and the store is a no-op. *)
let solve_stored ?budget (h : Coupling.t) (coords : Weyl.Coords.t) =
  let key = cache_fingerprint h coords in
  match Pulse_cache.lookup key with
  | Some e ->
    Robust.Counters.incr ~stage "cache_hit";
    cache_replay h e
  | None ->
    let oc = solve_coords_uncached ?budget h coords in
    cache_store key oc;
    oc

(* --------------------------------------------------------- class memo *)

(* Process-wide memo in front of the pulse cache and the solver. A pulse
   depends only on the coupling and the target class, and a compiled
   program holds few distinct classes, so each class is solved (or
   replayed) once. The key is the exact bits of (h, coords), not the
   cache's 1e-9 fingerprint: two targets that agree to 1e-9 can still
   solve to different pulses, and a hit must return the bytes the chain
   behind it would. It also holds the pulse cache's install generation,
   so an entry filled under one installation (or none) never answers
   under another: under a cache, an entry is the cache's replay or the
   solve the cache just recorded.
   An entry holds the pulse, the unitary it realizes and that unitary's
   KAK, so a hit in [solve_r] runs neither an expm nor a second KAK. Its
   matrices are shared and read-only: [solve_r] hands out a copy.
   The chain is deterministic without a budget or armed faults, so only
   those solves are memoized. The lock covers lookups and inserts, never
   a solve: two domains missing on one class both solve it and store the
   same outcome. *)
let memo_capacity = 1024

let memo :
    ( int * int64 * int64 * int64 * int64 * int64 * int64,
      (pulse * Mat.t * Weyl.Kak.t) Robust.Outcome.t )
    Cache.Lru.t =
  Cache.Lru.create ~capacity:memo_capacity

let memo_lock = Mutex.create ()

let memo_key (h : Coupling.t) (c : Weyl.Coords.t) =
  let b = Int64.bits_of_float in
  (Pulse_cache.generation (), b h.a, b h.b, b h.c, b c.x, b c.y, b c.z)

let solve_memo (h : Coupling.t) (coords : Weyl.Coords.t) =
  let key = memo_key h coords in
  match Mutex.protect memo_lock (fun () -> Cache.Lru.find memo key) with
  | Some oc ->
    Robust.Counters.incr ~stage "memo_hit";
    oc
  | None ->
    Robust.Counters.incr ~stage "memo_miss";
    let oc = solve_stored h coords in
    (* faults armed while it ran may have shaped this outcome *)
    if not (Robust.Fault.enabled ()) then begin
      match Mutex.protect memo_lock (fun () -> Cache.Lru.add memo key oc) with
      | Some _ -> Robust.Counters.incr ~stage "memo_evict"
      | None -> ()
    end;
    oc

let memo_length () = Mutex.protect memo_lock (fun () -> Cache.Lru.length memo)
let memo_clear () = Mutex.protect memo_lock (fun () -> Cache.Lru.clear memo)

(* One chain: memo, installed pulse cache, solver. A budgeted solve or
   one with a fault site armed skips only the memo, so [Budget_exceeded]
   and every fault stay reachable. Every outcome carries its tail
   (realized unitary, its KAK). *)
let solve_class ?budget (h : Coupling.t) (coords : Weyl.Coords.t) =
  Obs.Span.with_ ~stage:"solver" ~name:"solve_coords" @@ fun () ->
  match validate h coords with
  | Error e ->
    Robust.Counters.incr ~stage "failed";
    Robust.Outcome.Failed e
  | Ok () ->
    if Option.is_none budget && not (Robust.Fault.enabled ()) then solve_memo h coords
    else solve_stored ?budget h coords

let solve_coords_r ?budget h coords =
  Robust.Outcome.map (fun (p, _, _) -> p) (solve_class ?budget h coords)

(* the target's KAK: the one the gate carries, or else a fresh
   decomposition, the only kind that records a [solver/kak] span *)
let target_kak (g : Gate.t) =
  if Option.is_some g.kak then Gate.kak g
  else Obs.Span.with_ ~stage:"solver" ~name:"kak" (fun () -> Gate.kak g)

let solve_r ?budget h g =
  match target_kak g with
  | Error e -> Robust.Outcome.Failed e
  | Ok du -> (
    match solve_class ?budget h du.Weyl.Kak.coords with
    | Robust.Outcome.Failed e -> Robust.Outcome.Failed e
    | ( Robust.Outcome.Solved (pulse, realized, dw)
      | Robust.Outcome.Degraded ((pulse, realized, dw), _) ) as oc ->
      let d = Weyl.Coords.dist du.Weyl.Kak.coords dw.Weyl.Kak.coords in
      if d > loose_class_tol then
        Robust.Outcome.Failed
          (Robust.Err.Non_convergence
             {
               stage;
               target =
                 Some (du.Weyl.Kak.coords.x, du.Weyl.Kak.coords.y, du.Weyl.Kak.coords.z);
               iterations = 0;
               residual = d;
             })
      else begin
        let r =
          {
            pulse;
            coords = du.Weyl.Kak.coords;
            realized = Mat.copy realized;
            a1 = Mat.mul du.Weyl.Kak.a1 (Mat.dagger dw.Weyl.Kak.a1);
            a2 = Mat.mul du.Weyl.Kak.a2 (Mat.dagger dw.Weyl.Kak.a2);
            b1 = Mat.mul (Mat.dagger dw.Weyl.Kak.b1) du.Weyl.Kak.b1;
            b2 = Mat.mul (Mat.dagger dw.Weyl.Kak.b2) du.Weyl.Kak.b2;
          }
        in
        match oc with
        | Robust.Outcome.Solved _ when d <= strict_class_tol -> Robust.Outcome.Solved r
        | Robust.Outcome.Degraded (_, i) ->
          Robust.Outcome.Degraded (r, { i with Robust.Outcome.residual = Float.max i.residual d })
        | _ ->
          Robust.Outcome.Degraded
            ( r,
              {
                Robust.Outcome.residual = d;
                retries = 0;
                note = "class distance above strict tolerance after local corrections";
              } )
      end)

let reconstruct r =
  Mat.mul3 (Mat.kron r.a1 r.a2) r.realized (Mat.kron r.b1 r.b2)

let ea_grid h coords ~n =
  let { Tau.tau; target_plus; subscheme } = Tau.plan h coords in
  let h', target =
    match subscheme with
    | Tau.EA_opposite ->
      let x, y, z = target_plus in
      (Coupling.make h.a h.b (-.h.c), (x, y, -.z))
    | _ -> (h, target_plus)
  in
  let scale = Coupling.strength h in
  let buf = make_ea_buf h' in
  let out = ref [] in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let map k = 3.0 *. scale *. float_of_int k /. float_of_int (n - 1) in
      let om = map i and de = map j in
      let r = Cx.norm (ea_residual ~buf h' target tau (om, de)) in
      out := (om, de, r) :: !out
    done
  done;
  Array.of_list (List.rev !out)

let ea_roots h coords =
  let { Tau.tau; target_plus; subscheme } = Tau.plan h coords in
  match subscheme with
  | Tau.ND -> []
  | Tau.EA_same -> ea_all_roots h target_plus tau
  | Tau.EA_opposite ->
    let x, y, z = target_plus in
    ea_all_roots (Coupling.make h.a h.b (-.h.c)) (x, y, -.z) tau
