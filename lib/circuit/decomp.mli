(** Gate decompositions: MCX → CCX, CCX → CX, and exact KAK-based lowering
    of arbitrary two-qubit gates to {0,1,2,3}-CNOT circuits. *)

(** [ccx_to_cx a b c] is the standard 6-CNOT + T Toffoli circuit. *)
val ccx_to_cx : int -> int -> int -> Gate.t list

(** [mcx ~controls ~target ~avail] decomposes a multi-controlled X into CCX
    and CX gates, borrowing dirty ancillas from [avail] (callers must supply
    at least one free wire when there are three or more controls; the
    recursion self-feeds below that).
    @raise Invalid_argument when no ancilla is available but needed. *)
val mcx : controls:int list -> target:int -> avail:int list -> Gate.t list

(** [cnot_count_for c] is the minimal number of CNOTs that synthesize the
    class [c] with free 1Q gates: 0, 1 (CNOT class), 2 (z = 0 plane), else
    3 (Shende-Markov-Bullock). *)
val cnot_count_for : Weyl.Coords.t -> int

(** [can_circuit q0 q1 c] is a CNOT+1Q circuit whose two-qubit class is
    exactly [c], using [cnot_count_for c] CNOTs. *)
val can_circuit : int -> int -> Weyl.Coords.t -> Gate.t list

(** [su4_to_cx g] rewrites an arbitrary 2Q gate as 1Q gates and CNOTs,
    reproducing the gate's matrix exactly (including phase). *)
val su4_to_cx : Gate.t -> Gate.t list

(** [three_q_to_ccx g] rewrites the named 3Q gates (ccx, ccz, cswap, peres)
    into CCX/CX/H form.
    @raise Invalid_argument on an unrecognized 3Q gate. *)
val three_q_to_ccx : Gate.t -> Gate.t list

(** [lower_to_cx circuit] lowers every gate to CX + 1Q, exactly. *)
val lower_to_cx : Circuit.t -> Circuit.t

(** [lower_3q circuit] lowers only gates of arity 3 (to CCX/CX/1Q form),
    leaving 2Q gates untouched — the CCX-based input form consumed by
    template synthesis. *)
val lower_3q : Circuit.t -> Circuit.t

(** [su4_to_can g] expresses an arbitrary 2Q gate in the {Can, U3} ISA:
    [u3 pair; can(x,y,z); u3 pair], exact up to a global phase. *)
val su4_to_can : Gate.t -> Gate.t list

(** [to_can_isa c] emits the final {Can, U3} form of a compiled su4+1Q
    circuit (the paper's output representation when no hardware is
    attached). *)
val to_can_isa : Circuit.t -> Circuit.t
