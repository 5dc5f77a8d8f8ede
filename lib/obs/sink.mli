(** The installable event sink: the gate between span instrumentation
    and the observability machinery.

    With no sink installed every span point is one atomic load and a
    branch — no allocation, no clock read, no table lookup — so the
    disabled path leaves rung-0 behaviour and bench output bit-identical.
    Installing a sink (usually a {!Recorder}) turns the same points into
    timed span events. Counters and gauges do not pass through here:
    {!Robust.Counters} counts whether or not a sink is installed. *)

(** One completed span. Timestamps are {!Clock} nanoseconds. *)
type span_event = {
  stage : string;  (** coarse layer: ["solver"], ["compiler"], ["cache"], ["serve"] *)
  name : string;  (** fine-grained site, e.g. ["ea.baseline"], ["queue_wait"] *)
  t0_ns : int;  (** start time *)
  dur_ns : int;  (** duration (>= 0 — the clock is monotone) *)
  depth : int;  (** nesting depth within this domain at span start *)
  domain : int;  (** numeric id of the emitting domain *)
}

type t = { on_span : span_event -> unit }

(** [install s] makes [s] the process-global sink (replacing any previous
    one); [uninstall ()] returns to the disabled state. *)
val install : t -> unit

val uninstall : unit -> unit
val installed : unit -> t option

(** [enabled ()] — one atomic load; the fast-path guard every
    instrumentation point uses. *)
val enabled : unit -> bool
