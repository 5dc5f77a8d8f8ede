(** Evaluation metrics (Section 6.1.1) for compiled circuits under the
    conventional, the native SU(4) or a registered target ISA: #2Q,
    Depth2Q, pulse duration, distinct SU(4) count. *)

type isa =
  | Cnot_isa  (** every 2Q gate executes as a conventional CNOT pulse *)
  | Su4_isa of Microarch.Coupling.t
      (** native genAshN realization: per-gate time-optimal duration *)
  | Target of Isa.target
      (** a circuit lowered to a target ISA ({!Isa.targets}), under that
          target's own cost model *)

type report = {
  count_2q : int;
  depth_2q : int;
  duration : float;  (** critical-path pulse time, units of 1/energy *)
  distinct_2q : int;
}

(** [gate_tau isa g] is the pulse duration of one gate (0 for 1Q gates,
    which execute as virtual/PMW rotations). Under [Cnot_isa], every 2Q
    gate costs the conventional CNOT duration pi/(sqrt 2 g) with g = 1;
    under [Target t] it is [t.gate_tau g]. *)
val gate_tau : isa -> Gate.t -> float

(** [report isa c] computes all metrics for a lowered (arity <= 2)
    circuit. Under [Target t] the duration is {!Isa.duration}: the
    target's own schedule (fixed basis-gate tau, or cycle-quantized slots
    for eqasm). *)
val report : isa -> Circuit.t -> report

(** [reduction ~base ~opt] is the percentage reduction from [base] to
    [opt]. *)
val reduction : base:float -> opt:float -> float

val pp_report : Format.formatter -> report -> unit
