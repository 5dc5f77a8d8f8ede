(** The benchmark suite: named instances per category, plus the Table-1
    style characteristics summary. *)

open Compiler

type bench = {
  name : string;
  category : string;
  program : Pass.program;
}

(** [categories] in the paper's order. *)
val categories : string list

(** [suite ()] builds the default-size suite (a scaled-down analogue of the
    paper's 132 programs, a few instances per category). [big] adds the
    larger instances (slower to compile). *)
val suite : ?big:bool -> unit -> bench list

(** [by_category benches] groups preserving the category order. *)
val by_category : bench list -> (string * bench list) list

type stats = {
  count : int;
  qubit_lo : int;
  qubit_hi : int;
  twoq_lo : int;
  twoq_hi : int;
  depth_lo : int;
  depth_hi : int;
  dur_lo : float;
  dur_hi : float;
}

(** [table1 benches] computes per-category characteristics of the
    CNOT-based input circuits, durations in g^-1 with the conventional CNOT
    pulse (pi / sqrt 2). *)
val table1 : bench list -> (string * stats) list
