(** First-class compiler passes over the unified pipeline IR.

    The nanopass view of the ReQISC pipeline: every stage is a named,
    reorderable value [{ name; doc; applies; run; oracle }] mapping one
    {!ir} to the next. The IR is a sum over the forms the pipeline
    actually moves through — the source program, the CCX-based 3Q IR,
    SU(4) block circuits, the mirrored result, and the final {Can, U3}
    form — so a plan ({!Passes.plan}) is just an ordered list of passes
    and any prefix of it is a meaningful compiler.

    Each pass carries a semantic {!oracle}: statevector equivalence
    against the source program on small circuits via the repo's own
    simulator ({!State}), with a fidelity tolerance and a qubit-width
    cap. {!check_equiv} is what the differential test harness and the
    deliberately-broken-pass negative tests run. *)

open Numerics

(** Input programs: Type-I reversible networks (CCX/CX/1Q circuits) or
    Type-II Pauli-rotation programs. *)
type program = Gates of Circuit.t | Pauli of Phoenix.program

(** [program_to_cnot_input p] is the CNOT-based form of the program (what
    the baselines consume, and the reference for Table 1/2 metrics). *)
val program_to_cnot_input : program -> Circuit.t

(** The unified pipeline IR. [Mirrored] carries the wire permutation the
    mirroring pass leaves behind; its semantics ({!apply_ir}) undo the
    permutation, so every [ir] form denotes a unitary on the program's
    logical wires and forms are directly comparable. *)
type ir =
  | Source of program  (** not yet lowered *)
  | Ccx of Circuit.t  (** CCX/CX/1Q reversible network (3Q IR) *)
  | Su4 of Circuit.t  (** su4 + 1Q gates only *)
  | Mirrored of {
      circuit : Circuit.t;
      final_mapping : int array;
      mirrored : int;
    }  (** su4/su4* + 1Q, plus the mirroring permutation *)
  | Can of Circuit.t  (** final {Can, U3} ISA form *)
  | Native of { isa : string; circuit : Circuit.t }
      (** lowered to a named target ISA ({!Isa.target}) — native 2Q
          gates plus exact 1Q corrections *)

(** Stable lowercase tag of the IR form (["source"], ["ccx"], ["su4"],
    ["mirrored"], ["can"], ["native:<isa>"]). *)
val ir_form : ir -> string

(** [width ir] — the number of logical wires. *)
val width : ir -> int

(** The circuit view of an IR, when it has one ([Source (Pauli _)] does
    not). For [Mirrored] this is the raw (permuted) circuit. *)
val circuit_of_ir : ir -> Circuit.t option

(** [count_2q ir] / [depth_2q ir] — 2Q metrics of the circuit view
    ([-1] when there is none). [count_2q] tolerates the not-yet-lowered
    forms (CCX gates count 0, like {!Circuit.count_2q_loose}). *)
val count_2q : ir -> int

val depth_2q : ir -> int

(** Per-compilation pass context. [make_ctx rng] performs exactly the
    pipeline preamble the fused compiler performed — one [Rng.split] to
    seed the template library — before any pass touches [rng], so every
    plan run consumes the RNG stream in the order the [test_passes]
    goldens pin (their gate-bit digests and restart counts). *)
type ctx = {
  rng : Rng.t;  (** the pipeline stream (hierarchical resynthesis) *)
  lib : Template.library;  (** memoized 3Q template library *)
}

val make_ctx : Rng.t -> ctx

(** Semantic oracle attached to every pass: after the pass, the IR must
    still denote the source unitary within [tol] (statevector fidelity
    [>= 1 - tol] on a probe set) — checked only up to [max_qubits]
    wires, because the check simulates the full statevector. *)
type oracle = { tol : float; max_qubits : int }

(** [{ tol = 1e-6; max_qubits = 6 }]. *)
val default_oracle : oracle

(** A first-class pass. [applies] is the IR-form guard: a pass whose
    guard rejects the current IR is skipped (recorded, not an error), so
    one plan can serve both Type-I and Type-II programs. [run] may
    consult the context's RNG/library and must preserve semantics per
    its [oracle]. *)
type t = {
  name : string;  (** registry key; also the Obs span / counter name *)
  doc : string;  (** one-line description for [describe] listings *)
  applies : ir -> bool;
  run : ctx -> ir -> ir;
  oracle : oracle;
}

(** [apply_ir ir st] applies the IR's denotation to statevector [st]
    (length [2 ^ width ir]); for [Mirrored] the output permutation is
    undone so the result is on logical wires. *)
val apply_ir : ir -> Cx.t array -> Cx.t array

(** Probe inputs for {!check_equiv} on [n] wires: the all-zeros state
    plus deterministic pseudo-random entangled states (seeded Haar 1Q
    layers over a CX ladder). *)
val probe_states : int -> Cx.t array list

type verdict =
  | Checked  (** simulated and equivalent within tolerance *)
  | Skipped of string  (** not checkable (too wide); reason attached *)

(** [check_equiv oracle ~reference ~candidate] — statevector equivalence
    of two IRs on the probe set. [Error] carries the worst fidelity and
    the probe index; width mismatch is an immediate [Error]. *)
val check_equiv : oracle -> reference:ir -> candidate:ir -> (verdict, string) result
