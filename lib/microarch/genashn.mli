(** The genAshN gate scheme (Algorithm 1): time-optimal realization of any
    SU(4) target, up to single-qubit corrections, under an arbitrary
    canonical coupling Hamiltonian with constant local drives.

    The synthesized control is

    {v exp(-i tau (H + drive_x1·XI + drive_x2·IX + delta·(ZI + IZ))) v}

    which equals the target after the single-qubit corrections:
    [(a1 ⊗ a2) realized (b1 ⊗ b2) = target]. *)

open Numerics

type pulse = {
  tau : float;  (** duration (time-optimal, Theorem 1) *)
  subscheme : Tau.subscheme;
  drive_x1 : float;  (** coefficient of X on qubit 0 *)
  drive_x2 : float;  (** coefficient of X on qubit 1 *)
  delta : float;  (** shared detuning: coefficient of Z on both qubits *)
}

type result = {
  pulse : pulse;
  coords : Weyl.Coords.t;  (** canonical class of the target *)
  realized : Mat.t;  (** the bare evolution [exp(-i tau H_total)] *)
  a1 : Mat.t;  (** left 1Q correction, qubit 0 *)
  a2 : Mat.t;
  b1 : Mat.t;  (** right 1Q correction, qubit 0 *)
  b2 : Mat.t;
}

(** [amplitudes p] is [(A1, A2) = (-2 drive_x1, -2 drive_x2)], the
    physical drive amplitudes every pulse table reports. *)
val amplitudes : pulse -> float * float

(** [amplitude_penalty p] is [(|A1| + |A2|) / 2 + |delta|], with [A_i]
    from {!amplitudes} — the physical implementation penalty minimized
    when several roots exist (§4.2). *)
val amplitude_penalty : pulse -> float

(** [hamiltonian coupling p] assembles the driven 4x4 Hamiltonian. *)
val hamiltonian : Coupling.t -> pulse -> Mat.t

(** [evolve coupling p] is [exp(-i tau H_total)]. *)
val evolve : Coupling.t -> pulse -> Mat.t

(** [solve_coords_r coupling c] finds the pulse steering to the class [c].
    Near-identity classes whose optimal-time realization needs amplitudes
    beyond the search bound fail: those are the gates the compiler must
    mirror (§4.3). The EA search runs a deterministic retry ladder —
    baseline grid + Newton, a half-cell reseeded grid, a widened
    window, and a long Nelder-Mead escalation — under the optional
    [budget]; the ND scheme retries with a 3x wider sinc scan window.
    Outcomes:
    - [Solved pulse]: first-attempt strict solve (realized class within
      1e-6 of the target);
    - [Degraded (pulse, info)]: a usable pulse that needed retries or
      landed between the strict (1e-6) and loose (1e-3) class tolerances;
      [info] carries the residual and retry count;
    - [Failed err]: typed error — [Non_convergence] (ladder exhausted),
      [Budget_exceeded], [Invalid_hamiltonian] (degenerate coupling or
      non-finite duration), or [Nan_detected] (poisoned inputs).
    Per-stage counters accumulate in {!Robust.Counters} under stages
    ["genashn"], ["solver.ea"] and ["solver.nd"].

    One chain stands in front of the root search, tried in order:
    - the process-wide class memo: a bounded ({!memo_capacity}) LRU
      keyed on the exact float bits of the coupling and the coordinates
      and on the pulse cache's install generation
      ({!Pulse_cache.generation}), holding the full outcome together
      with the unitary the pulse realizes and that unitary's KAK, so a
      hit in {!solve_r} costs four local products, plus one KAK of the
      target when the gate carries none ({!Gate.kak}). It answers only
      when [budget] is absent and no fault site is armed, so
      [Budget_exceeded] and every fault stay reachable; such a solve
      skips only the memo. A hit returns the outcome the rest of the
      chain would, byte for byte. Counters ["memo_hit"], ["memo_miss"]
      and ["memo_evict"].
    - the pulse cache, when one is installed ({!Pulse_cache.install}):
      the target's {!cache_fingerprint} is looked up; a hit replays the
      stored Solved/Degraded verdict bit for bit, skips the root search
      (counter ["cache_hit"]) and computes the tail (one expm, one KAK)
      the memo then keeps; a miss solves and stores the verdict.
    - the solve itself (counter ["solve_run"], one per root search
      actually run). *)
val solve_coords_r :
  ?budget:Robust.Budget.t -> Coupling.t -> Weyl.Coords.t -> pulse Robust.Outcome.t

(** Entries the class memo holds at most. *)
val memo_capacity : int

(** Entries the class memo holds now. *)
val memo_length : unit -> int

(** [memo_clear ()] empties the class memo, for tests and benchmarks that
    must time or count real root searches. *)
val memo_clear : unit -> unit

(** [solve_r coupling g] runs the full Algorithm 1 on the 2Q gate [g]:
    pulse plus exact single-qubit corrections. The target class and
    locals come from {!Gate.kak}: the KAK [g] carries, else a fresh
    decomposition of [g.mat], which alone records a [solver/kak] span.
    KAK errors (a gate that is not 2Q, a matrix that is not unitary)
    surface as [Failed (Ill_conditioned _ | Nan_detected _)] and the
    solver ladder behaves as in {!solve_coords_r}. The result's
    [realized] is the caller's own copy, never the memo's. *)
val solve_r : ?budget:Robust.Budget.t -> Coupling.t -> Gate.t -> result Robust.Outcome.t

(** [cache_fingerprint h c] is the canonical pulse-cache key for steering
    to class [c] under coupling [h]: a versioned tag over the quantized
    (1e-9) normal-form coefficients and Weyl coordinates. The solver
    settings are pinned by the version tag. *)
val cache_fingerprint : Coupling.t -> Weyl.Coords.t -> string

(** [reconstruct r] is [(a1 ⊗ a2) realized (b1 ⊗ b2)]; equals the target. *)
val reconstruct : result -> Mat.t

(** [ea_grid coupling c ~n] evaluates the EA residual magnitude on an n x n
    grid of (Ω, delta) seeds — the data behind the Fig. 4 solution-profile
    plot. Returns [(omega, delta, |residual|)] triples. *)
val ea_grid :
  Coupling.t -> Weyl.Coords.t -> n:int -> (float * float * float) array

(** [ea_roots coupling c] enumerates the distinct (Ω, delta) roots of the
    equal-amplitude transcendental system for class [c] (first quadrant,
    grid + Newton, deduplicated) — the solution profile of Fig. 4. The
    returned pairs are in the same-sign parametrization used internally
    (for EA- faces they refer to the reduced dual problem). *)
val ea_roots : Coupling.t -> Weyl.Coords.t -> (float * float) list
