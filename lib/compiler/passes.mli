(** The pass registry and the plan runner.

    A {!plan} is an ordered list of {!Pass.t} values; the historical
    [Eff]/[Full]/[Nc] pipeline modes are three named plans over the same
    registry, and custom plans are built from pass names with
    {!of_names}. {!run_plan} executes a plan (or a [start_from] /
    [stop_after] slice of it) over a {!Pass.ir}, attaching an Obs span
    and per-pass {!Robust.Counters} from each pass name and recording
    per-pass metrics (2Q count, depth, wall time). *)

open Numerics

type mode = Eff | Full | Nc

val mode_to_string : mode -> string

(** The compiled result. Under the default plans [circuit] contains su4 +
    1Q gates only; a custom plan ending in [to_can] yields the {Can, U3}
    form instead. *)
type output = {
  circuit : Circuit.t;
  final_mapping : int array;
  mirrored : int;
  template_classes : int;
}

(** {1 The registry} *)

(** The individual passes (see each [doc] string; [describe] lists
    them). [hierarchical] compacts between rounds; [hierarchical_nc] is
    the no-compacting ablation; [compact] and [peephole] are standalone
    SU(4)-layer cleanups; [to_can] lowers to the final {Can, U3} ISA. *)
val lower_3q : Pass.t

val template : Pass.t
val phoenix_to_su4 : Pass.t
val hierarchical : Pass.t
val hierarchical_nc : Pass.t
val compact : Pass.t
val peephole : Pass.t
val mirroring : Pass.t
val to_can : Pass.t

(** [lower_isa t] — the lowering pass for one target ISA: consumes the
    {Can, U3} form ([Pass.Can]) and produces [Pass.Native], with the
    synthesis oracle attached. Registered as ["lower_isa:<name>"] for
    every {!Isa.targets} entry ({!lower_isa_passes}). *)
val lower_isa : Isa.target -> Pass.t

val lower_isa_passes : Pass.t list

(** Every registered pass, in canonical pipeline order (the per-ISA
    lowering passes come last). *)
val all : Pass.t list

val known_names : string list

(** [find name] — registry lookup. *)
val find : string -> Pass.t option

(** [(name, doc)] pairs for every registered pass, in order. *)
val describe : unit -> (string * string) list

(** {1 Plans} *)

type plan = { plan_name : string; passes : Pass.t list }

(** The default plan of each historical mode. *)
val plan_of_mode : mode -> plan

(** [mode_of_name name] is the mode whose default plan is named [name]
    (["eff"], ["full"] or ["nc"]); [None] for any other name. The one
    parser of the mode spelling: the protocol and the CLI both use it. *)
val mode_of_name : string -> mode option

(** [of_names names] builds a custom plan; an unknown name is a typed
    error (stage ["compiler.plan"]) naming every known pass. *)
val of_names : ?name:string -> string list -> (plan, Robust.Err.t) result

(** [plan_for_isa ?mode t] is the default plan of [mode] (default [Eff])
    retargeted at ISA [t]: the synthesis passes, then [to_can], then
    [lower_isa t]. Mirroring is dropped — it leaves a wire permutation
    the Can form does not carry. *)
val plan_for_isa : ?mode:mode -> Isa.target -> plan

(** [with_isa plan t] appends the [to_can; lower_isa t] tail to a custom
    plan. The tail applies to the [Su4]/[Can] forms only, so a plan that
    ends in [mirroring] records it as skipped rather than lowering. *)
val with_isa : plan -> Isa.target -> plan

(** [resolve_plan ~mode ~plan ~isa] is the plan a compile request runs:
    [plan] when given, else the default plan of [mode]; an [isa]
    retargets it — {!plan_for_isa} for the default plan, {!with_isa} for
    a given one. *)
val resolve_plan : mode:mode -> plan:plan option -> isa:Isa.target option -> plan

(** {1 Running} *)

(** Per-pass execution record. [ran = false] means the pass's [applies]
    guard rejected the IR form and it was skipped. Metrics are taken on
    the IR {e after} the pass ([-1] while it has no circuit view). *)
type pass_stat = {
  pass : string;
  ran : bool;
  form : string;  (** {!Pass.ir_form} after the pass *)
  count_2q : int;
  depth_2q : int;
  wall_s : float;
}

(** [run_pass ctx ir p] — one step: guard, span, counters, metrics.
    Exposed for the differential prefix harness. *)
val run_pass : Pass.ctx -> Pass.ir -> Pass.t -> Pass.ir * pass_stat

(** [run_plan ctx plan ir] folds the plan's passes over [ir].
    [start_from] drops the passes before the named one; [stop_after]
    drops the ones after it; naming a pass not in the plan is a typed
    error. Pass exceptions propagate (callers that want typed errors use
    {!compile_plan}). *)
val run_plan :
  ?start_from:string ->
  ?stop_after:string ->
  Pass.ctx ->
  plan ->
  Pass.ir ->
  (Pass.ir * pass_stat list, Robust.Err.t) result

(** [output_of_ir ctx ir] finishes a run: [Mirrored] yields the full
    output; [Ccx]/[Su4]/[Can] yield an identity mapping and [mirrored =
    0]; a plan that never left [Source] is a typed error. *)
val output_of_ir : Pass.ctx -> Pass.ir -> (output, Robust.Err.t) result

(** [compile_plan ~plan rng p] — the one compile entry point: context
    creation, plan run, finish. Synthesis breakdowns surface as
    [Error (Ill_conditioned _)] at stage ["compiler.pipeline"]. Inside
    the plan the hierarchical pass already degrades to the exact template
    stage on failure (counter ["compiler.pipeline"/"hier_fallback"]), so
    [Error] here means even exact synthesis broke. To run a mode, pass
    [~plan:(plan_of_mode mode)]. *)
val compile_plan :
  ?start_from:string ->
  ?stop_after:string ->
  plan:plan ->
  Rng.t ->
  Pass.program ->
  (output * pass_stat list, Robust.Err.t) result
