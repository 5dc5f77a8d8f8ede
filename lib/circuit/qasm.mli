(** A QASM-flavoured text format for circuits.

    Supports the gate vocabulary this repository emits: named 1Q gates,
    rotations, [cx]/[cz]/[swap]/[iswap]/[cp]/[rzz], [can(x,y,z)], [ccx] and
    friends, plus [u(...)] / [su4(...)] with explicit matrix entries so any
    compiled circuit round-trips exactly. *)

(** [to_string c] serializes a circuit. *)
val to_string : Circuit.t -> string

(** A located parse failure: 1-based [line]/[column] of the offending
    [token] (empty when no single token is to blame). *)
type parse_error = { line : int; column : int; token : string; message : string }

val parse_error_to_string : parse_error -> string

(** [parse s] parses back what [to_string] produced, reporting malformed
    input as a located {!parse_error} instead of raising. *)
val parse : string -> (Circuit.t, parse_error) result

(** [save path c] writes [to_string c] to [path]. *)
val save : string -> Circuit.t -> unit

(** [parse_file path] is {!parse} on the file's contents. *)
val parse_file : string -> (Circuit.t, parse_error) result
