(** Simulated gate calibration (Section 4.5): the controller derives pulse
    parameters from its device {e model}, the (simulated) device evolves
    under its {e true} Hamiltonian, process tomography measures the realized
    Weyl coordinates, and the control parameters are tuned to close the gap
    — the paper's tomography + coordinate-distance minimization loop. *)

open Numerics

type device = { true_coupling : Coupling.t }

(** [realized device pulse] is the gate the hardware actually implements
    when the pulse computed from a (possibly wrong) model is played. *)
val realized : device -> Genashn.pulse -> Mat.t

(** [measured_coords device pulse] is what process tomography reports. *)
val measured_coords : device -> Genashn.pulse -> Weyl.Coords.t

(** [calibrate device ~model target] starts from the model-derived pulse and
    tunes (x1, x2, delta, tau) to minimize the Euclidean coordinate distance
    to [target]. Returns the tuned pulse together with the initial and final
    distances. [Error] when the model-based solve itself fails; a
    degraded model pulse is kept as the starting point. *)
val calibrate :
  ?max_iter:int ->
  device ->
  model:Coupling.t ->
  Weyl.Coords.t ->
  (Genashn.pulse * float * float, Robust.Err.t) result

(** [corrected_fidelity device pulse target_u] is the trace fidelity against
    [target_u] after the experimentally-free 1Q corrections (the residual
    error is purely the coordinate mismatch). *)
val corrected_fidelity : device -> Genashn.pulse -> Mat.t -> float
