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

(** [gate_tau isa g] is the pulse duration of one gate, from the {!Isa}
    cost models: [Cnot_isa] is [Isa.cnot.gate_tau] (every 2Q gate costs
    the conventional CNOT duration pi/(sqrt 2 g) with g = 1), [Su4_isa c]
    is [Isa.su4_tau c] and [Target t] is [t.gate_tau]. 1Q gates cost 0
    (virtual/PMW rotations) except under the [eqasm] target, which charges
    each an explicit slot. *)
val gate_tau : isa -> Gate.t -> float

(** [report isa c] computes all metrics for a lowered (arity <= 2)
    circuit; the duration is [Circuit.duration ~tau:(gate_tau isa) c]. *)
val report : isa -> Circuit.t -> report

(** [reduction ~base ~opt] is the percentage reduction from [base] to
    [opt]. *)
val reduction : base:float -> opt:float -> float

val pp_report : Format.formatter -> report -> unit
