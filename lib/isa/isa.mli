(** Pluggable target instruction sets for the 2Q layer.

    The paper's evaluation compares the reconfigurable {Can, U3} ISA
    against fixed 2Q gate sets; this module makes every such baseline a
    first-class compilation target. A {!target} packages a native 2Q
    gate set, a per-class synthesis rule (an arbitrary [Can (x, y, z)]
    block into native gates with free 1Q corrections), and a cost model
    (per-gate pulse duration).

    Every lowering routes through the shared Weyl canonical form: a 2Q
    gate is KAK-decomposed, its chamber class is synthesized into the
    target's native gates, and the synthesized core is "dressed" with
    the KAK local factors so the emitted circuit reproduces the gate's
    matrix exactly (including phase). The per-class constructions only
    need to hit the right chamber point; the dressing supplies every 1Q
    correction, so no hand-derived phase bookkeeping is involved.

    Emitted 2Q counts per chamber class (free 1Q gates):

    - [native] / [eqasm]: 1 (the class itself, as one Can pulse)
    - [cnot] / [cz]: the analytic minimum 0/1/2/3
      (identity / CNOT class / z = 0 plane / generic)
    - [iswap]: 0/1/2/4 (identity / iSWAP class / z = 0 plane / generic;
      the generic case emits one gate over the analytic minimum of 3 —
      it splits [Can (x, y, z)] into the commuting exact product
      [Can (x, y, 0) * Can (0, 0, z)], two dressed 2-iSWAP cores)
    - [sqisw]: 0/1/2/4/8 (identity / SQiSW class / iSWAP class / z = 0
      plane / generic), via the exact substitution iSWAP = SQiSW^2. *)

(** A target instruction set. [synthesize q0 q1 c] returns a native-gate
    circuit on wires [q0], [q1] whose Weyl chamber class is exactly [c]
    (callers dress it with KAK locals for matrix-exact lowering);
    [gates_for c] is the 2Q count that circuit will contain; [gate_tau g]
    is the cost model: the pulse duration charged to one emitted gate
    (0 for 1Q gates except under [eqasm], which accounts explicit 1Q
    slots). *)
type target = {
  name : string;
  doc : string;
  native_2q : string list;  (** labels of the native 2Q gates *)
  synthesize : int -> int -> Weyl.Coords.t -> Gate.t list;
  gates_for : Weyl.Coords.t -> int;
  gate_tau : Gate.t -> float;
}

(** {1 Registry} *)

(** The reconfigurable set plus the fixed baselines:
    [native], [cnot], [cz], [iswap], [sqisw], [eqasm]. *)
val targets : target list

(** The fixed CNOT target: every 2Q gate costs the conventional CNOT
    pulse pi/(sqrt 2 g) with g = 1. *)
val cnot : target

(** [su4_tau coupling g] is the SU(4) cost model: a 2Q gate costs the
    time-optimal genAshN duration of its Weyl class under [coupling], a
    1Q gate 0. [native] and [eqasm] use it at the XY coupling (g = 1). *)
val su4_tau : Microarch.Coupling.t -> Gate.t -> float

val known_names : string list
val find : string -> target option

(** [(name, doc)] for every target, in registry order. *)
val describe : unit -> (string * string) list

(** The stage every ISA-selection error carries: ["compiler.isa"]. *)
val stage : string

(** [unknown_error name] — typed error naming every known target. *)
val unknown_error : string -> Robust.Err.t

(** {1 Lowering} *)

(** [dress q0 q1 d core] wraps a synthesized [core] (gates on wires 0/1
    whose chamber class equals [d.coords]) in the KAK local factors of
    [d], remapped onto [q0]/[q1]: the result's unitary equals
    [Kak.reconstruct d] exactly. An empty core emits the merged locals.
    @raise Failure when the core's class does not match [d.coords]. *)
val dress : int -> int -> Weyl.Kak.t -> Gate.t list -> Gate.t list

(** [lower t c] rewrites every 2Q gate of [c] into [t]'s native gates
    plus exact 1Q corrections; 1Q gates pass through.
    @raise Invalid_argument on gates of arity 3 or more (lower first). *)
val lower : target -> Circuit.t -> Circuit.t

(** {1 Timed executable (eQASM-style)} *)

(** [eqasm_text t c] renders {!Circuit.schedule} under [t.gate_tau] as an
    eQASM-style timed listing: a header with the slot count and makespan,
    then one line per gate of positive duration (index, start, duration,
    gate). Zero-duration gates (1Q under the analog targets) get no line;
    under [eqasm] every gate occupies an explicit slot. *)
val eqasm_text : target -> Circuit.t -> string
