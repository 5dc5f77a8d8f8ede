(** Pulse scheduling: turn a compiled SU(4) circuit into per-qubit pulse
    tracks with explicit start times, the last mile before an AWG. The
    timing is {!Circuit.schedule} (the repo's one ASAP schedule) under each
    gate's pulse duration; 1Q corrections are zero-duration virtual/PMW
    phase updates, matching the paper's control stack. *)

type event = {
  qubits : int * int;
  start : float;  (** start time in 1/g units *)
  pulse : Genashn.pulse;
}

type t = {
  n : int;
  events : event list;  (** sorted by start time *)
  makespan : float;  (** total schedule length *)
}

(** [schedule coupling c] solves every 2Q gate with Algorithm 1
    ({!Genashn.solve_coords_r}), then places it as early as its wires
    allow: each event's start is its {!Circuit.slot} start under
    [tau g = pulse.tau], and [makespan] is that schedule's.
    A degraded pulse is kept, as {!Robust.Outcome.to_result} does; the
    first gate that fails is the typed error: a gate matrix the KAK
    rejects (non-unitary, NaN) or a class the solver cannot reach
    (near-identity gates fail — mirror them at compile time first). *)
val schedule : Coupling.t -> Circuit.t -> (t, Robust.Err.t) result

(** [to_string s] renders a human-readable timetable. *)
val to_string : t -> string
