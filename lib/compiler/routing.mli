(** Qubit mapping/routing: SABRE (Li-Ding-Xie) and the SU(4)-aware
    mirroring-SABRE variant (Section 5.3.2) that absorbs inserted SWAPs
    into the preceding SU(4) on the same physical pair whenever doing so
    also lowers the lookahead heuristic. *)

type topology = {
  n : int;
  edges : (int * int) list;
  neighbors : int list array;
  dist : int array array;
}

(** [chain n] is the 1D line topology. *)
val chain : int -> topology

(** [grid ~rows ~cols] is the 2D lattice. *)
val grid : rows:int -> cols:int -> topology

type routed = {
  circuit : Circuit.t;  (** physical circuit (wires = physical qubits) *)
  initial_mapping : int array;  (** logical -> physical at circuit start *)
  final_mapping : int array;  (** logical -> physical at circuit end *)
  swaps_inserted : int;  (** standalone SWAP gates emitted *)
  swaps_absorbed : int;  (** SWAPs fused into a preceding 2Q gate *)
}

(** [route topo c] maps a lowered (arity <= 2) logical circuit onto the
    topology. [mirror] enables mirroring-SABRE (default false = plain
    SABRE). The extended set holds 20 gates, and 3 bidirectional passes
    refine the initial mapping. *)
val route : ?mirror:bool -> topology -> Circuit.t -> routed
