(** Pauli-rotation programs (Type-II workloads: QAOA, product formulas,
    UCCSD) and their two lowerings: CNOT ladders for the baselines, and a
    simplified PHOENIX-style SU(4)-direct lowering for ReQISC. *)

type term = {
  pauli : Quantum.Pauli.t;
  angle : float;  (** exp(-i angle/2 P) *)
}

type program = { n : int; terms : term list }

(** [simplify p] merges mergeable identical strings (commuting-adjacent) and
    drops zero-weight / zero-angle terms. *)
val simplify : program -> program

(** [reorder p] bubbles commuting terms together so that terms with equal
    2-qubit support become adjacent (more downstream fusion). *)
val reorder : program -> program

(** [term_circuit t] is the standard basis-conjugated CNOT-ladder circuit
    for one rotation. *)
val term_circuit : term -> Gate.t list

(** [to_cx_circuit p] lowers every term through CNOT ladders (baseline
    input form). *)
val to_cx_circuit : program -> Circuit.t

(** [to_su4_circuit p] lowers with weight-2 rotations as single SU(4)s and
    ladder cores fused — the phoenix-lite front end (the result should then
    go through {!Blocks.fuse_2q} / the ReQISC pipeline). *)
val to_su4_circuit : program -> Circuit.t
