(** The process-wide registry of counters and gauges (thread-safe).

    Every stage of the compiler, the solver and the server counts here,
    keyed by [(stage, name)], whether or not an [Obs.Sink] is installed.
    Conventional counter names: ["ok"], ["retry"], ["fallback"],
    ["degraded"], ["failed"], ["budget_exceeded"] — but any name works.
    The bench harness snapshots the table into its JSON report, the
    server's [stats] op returns it, and [Obs.Export] renders it. *)

val incr : stage:string -> string -> unit
val add : stage:string -> string -> int -> unit
val get : stage:string -> string -> int

(** [set_gauge ~stage name v] — last write wins. *)
val set_gauge : stage:string -> string -> float -> unit

val get_gauge : stage:string -> string -> float option

(** Clears counters and gauges. *)
val reset : unit -> unit

(** Sorted [(stage, [(counter, value); ...])] listing. *)
val snapshot : unit -> (string * (string * int) list) list

(** Sorted [(stage, name, value)] listing of the gauges. *)
val gauges : unit -> (string * string * float) list

(** The counter table as a JSON object [{"stage":{"counter":n,...},...}]. *)
val to_json : unit -> Json.t
