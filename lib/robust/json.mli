(** Minimal dependency-free JSON, the project's one JSON writer: a full
    RFC 8259 parser (objects, arrays, strings with escapes and [\uXXXX],
    numbers, literals) and the compact emitter that every JSON producer
    (server, cache stats, traces, bench reports) renders through.

    Numbers are floats (ints round-trip exactly up to 2^53, far beyond any
    id or counter this project writes). Parse errors report the byte
    offset; nesting beyond {!max_depth} is one of them (a located error,
    never a stack overflow). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(** Container nesting accepted by {!parse} (512). *)
val max_depth : int

val parse : string -> (t, string) result

(** Compact one-line rendering (never contains a raw newline, so every
    server response is exactly one protocol line). *)
val to_string : t -> string

(** {1 Accessors} ([None] on shape mismatch) *)

val member : string -> t -> t option

val str : t -> string option
val num : t -> float option
val int : t -> int option
val bool : t -> bool option
val arr : t -> t list option

(** [obj_int o] etc.: [member] composed with the accessor. *)
val mem_str : string -> t -> string option
val mem_num : string -> t -> float option
val mem_int : string -> t -> int option
val mem_bool : string -> t -> bool option
val mem_arr : string -> t -> t list option
