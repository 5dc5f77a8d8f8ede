(** ReQISC public facade: one-stop entry points tying the compiler and the
    genAshN microarchitecture together.

    The full per-subsystem APIs remain available as [Numerics], [Quantum],
    [Weyl], [Circuit]/[Gate]/..., [Microarch], [Compiler], [Noise] and
    [Benchmarks]; this module only re-exports the flows a downstream user
    needs for "compile my program and give me pulses".

    The facade is result-first: every fallible entry point returns
    [(_, Robust.Err.t) result] (or per-gate {!Robust.Outcome.t} verdicts)
    so callers branch on typed errors instead of catching exceptions.
    Each entry point has this one signature; there are no raising
    twins. *)

open Numerics

(** {1 Compilation} *)

type mode = Compiler.Passes.mode = Eff | Full | Nc

type compiled = Compiler.Passes.output = {
  circuit : Circuit.t;
  final_mapping : int array;
  mirrored : int;
  template_classes : int;
}

(** Named compilation plans over the nanopass registry
    ({!Compiler.Passes}). A plan is an ordered list of passes; the
    historical [Eff]/[Full]/[Nc] modes are the three defaults, and
    custom plans are built from pass names. *)
module Plan : sig
  type t = Compiler.Passes.plan

  (** [default mode] — the plan {!compile} runs when no [?plan] is given. *)
  val default : mode -> t

  (** [of_names names] builds a custom plan; an unknown name is a typed
      error naming every known pass. *)
  val of_names : ?name:string -> string list -> (t, Robust.Err.t) result

  (** Every registered pass name, in canonical pipeline order. *)
  val known_names : string list

  (** [(name, doc)] for every registered pass. *)
  val describe : unit -> (string * string) list

  val name : t -> string
  val pass_names : t -> string list
end

(** [compile rng ~mode circuit] compiles a Type-I (CCX/CX/1Q) circuit to the
    SU(4) ISA by running the plan through {!Compiler.Passes.compile_plan}.
    Numerical breakdown inside the pipeline surfaces as a typed
    [Error], never an exception. [?plan] overrides the default plan of
    [mode] (when given, [mode] is ignored). [?isa] names a target
    instruction set ({!Isa.known_names}): the plan gains the
    [to_can; lower_isa:<name>] tail (replacing mirroring under the
    default plans), so [circuit] lands in that target's native 2Q gates
    plus exact 1Q corrections; an unknown name is a typed error at stage
    ["compiler.isa"]. *)
val compile :
  ?mode:mode ->
  ?plan:Plan.t ->
  ?isa:string ->
  Rng.t ->
  Circuit.t ->
  (compiled, Robust.Err.t) result

(** [compile_pauli rng ~mode p] compiles a Pauli-rotation program
    ([?isa] as in {!compile}). *)
val compile_pauli :
  ?mode:mode ->
  ?plan:Plan.t ->
  ?isa:string ->
  Rng.t ->
  Compiler.Phoenix.program ->
  (compiled, Robust.Err.t) result

(** [route topology compiled] maps a compiled circuit onto hardware with
    mirroring-SABRE. A circuit wider than the device (or a routing
    breakdown) is an [Ill_conditioned] error at stage ["compiler.routing"]. *)
val route :
  ?mirror:bool ->
  Compiler.Routing.topology ->
  Circuit.t ->
  (Compiler.Routing.routed, Robust.Err.t) result

(** {1 Pulse generation (the microarchitecture)} *)

type pulse_instruction = {
  qubits : int * int;
  pulse : Microarch.Genashn.pulse;  (** drive amplitudes, detuning, duration *)
  pre : (Mat.t * Mat.t) option;  (** 1Q corrections before (per qubit) *)
  post : (Mat.t * Mat.t) option;  (** 1Q corrections after *)
}

(** Per-gate solver verdict from {!pulse_outcomes}. *)
type gate_outcome = {
  gate : Gate.t;
  outcome : pulse_instruction Robust.Outcome.t;
}

(** [pulse_outcomes coupling c] runs Algorithm 1 on every 2Q gate of a
    compiled circuit: each gate gets its own [Solved]/[Degraded]/[Failed]
    verdict and a failing gate never aborts the rest of the program. *)
val pulse_outcomes :
  ?budget:Robust.Budget.t ->
  Microarch.Coupling.t ->
  Circuit.t ->
  gate_outcome list

(** [pulses coupling c] is the all-or-nothing view of {!pulse_outcomes}:
    the executable pulse program if every 2Q gate solved (degraded
    solutions are kept — they carry their residual in the per-gate view),
    or the first gate's typed error. With [?plan], [c] is first compiled
    through the plan (as a Type-I source, deterministic under [seed],
    default [1L]) and the pulses are for the plan's output circuit. *)
val pulses :
  ?budget:Robust.Budget.t ->
  ?plan:Plan.t ->
  ?seed:int64 ->
  Microarch.Coupling.t ->
  Circuit.t ->
  (pulse_instruction list, Robust.Err.t) result

(** [with_pulse_cache cache f] runs [f] with [cache] installed as the
    process-global pulse-synthesis cache ({!Microarch.Pulse_cache}): every
    2Q solve inside {!pulses} / {!pulse_outcomes} whose Weyl-class
    fingerprint hits skips Algorithm 1 entirely. The previous cache (if
    any) is restored afterwards. *)
val with_pulse_cache : Cache.t -> (unit -> 'a) -> 'a

(** {1 Metrics} *)

val metrics : Compiler.Metrics.isa -> Circuit.t -> Compiler.Metrics.report

(** [xy_coupling] is the default flux-tunable-transmon coupling with
    strength 1 (durations then read in units of 1/g). *)
val xy_coupling : Microarch.Coupling.t
