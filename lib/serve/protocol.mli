(** The compilation service's line-delimited JSON protocol: one request
    object per line in, one response object per line out.

    Request grammar (see DESIGN.md "Service & cache" for the full
    description):

    {v { "v": 1, "id": <any json>?, "op": "compile" | "pulses" | "batch"
                               | "stats" | "shutdown",
         "budget": { "max_iterations": int?, "max_seconds": num? }?,
         "deadline_ms": num?,
         ... op-specific fields ... } v}

    Every request must carry the protocol version ["v"]; a missing or
    unsupported version is a [bad_request] before the op is examined.
    Every response echoes ["v"]. *)

(** The protocol version this build speaks. *)
val version : int

(**

    - [compile]: ["bench"] (suite name), ["mode"] (a default plan's name,
      read by {!Compiler.Passes.mode_of_name}; default eff), ["pulses"]
      (bool, default false), ["passes"] (an optional non-empty array of
      registered pass names — a custom compilation plan; an unknown name
      is a [bad_request] naming every known pass), ["isa"] (an optional target-ISA name,
      {!Isa.known_names}: the compiled circuit is lowered to that
      target's native gates; a non-string or unknown name is a
      [bad_request] at stage ["compiler.isa"]). The ["isa"] member is
      carried verbatim ([Json.t]) and validated by the engine, so its
      errors carry the compiler's stage, not the protocol's.
    - [pulses]: ["gate"] (named 2Q gate) or ["coords"] ([[x, y, z]] Weyl
      target), ["coupling"] ("xy"|"xx", default "xy"), ["passes"] (gate
      targets only: compile the gate through the plan first).
    - [batch]: ["requests"] — an array of op objects (no ids, no nested
      batches); executed in order inside one job.
    - [stats], [shutdown]: no extra fields.

    An absent or null ["mode"], ["pulses"] or ["coupling"] takes its
    default; a value of the wrong type is a [bad_request] naming the field.

    Responses: [{"id": .., "ok": true, "op": .., "result": ..}] or
    [{"id": .., "ok": false, "error": {"kind": .., "stage": ..,
    "message": ..}}]. Error kinds are {!Robust.Err.kind} tags plus
    ["bad_request"] and ["internal_error"]. *)

type budget_spec = { max_iterations : int option; max_seconds : float option }
type target = Gate of string | Coords of float * float * float

type op =
  | Compile of {
      bench : string;
      mode : Compiler.Passes.mode;
      pulses : bool;
      passes : string list option;
      isa : Json.t option;
    }
  | Pulses of { target : target; coupling : string; passes : string list option }
  | Batch of body list
  | Stats
  | Shutdown

and body = { op : op; budget : budget_spec option; deadline_ms : float option }
(** [deadline_ms]: optional end-to-end deadline in milliseconds, counted
    from the moment the server admits the request. [None] (field absent
    or null) means no deadline — existing "v":1 traffic is unaffected.
    The engine refuses to start work on an expired request (typed
    [deadline_exceeded], stage ["serve.deadline"]) and clamps the solver
    budget to the time remaining. *)

type parsed = { id : Json.t; body : (body, string) result }

(** Default request-frame cap accepted by {!parse_line} (1 MiB). A line
    longer than this is a [bad_request] naming the limit — the parser
    never even scans the payload, so a hostile frame costs O(1). *)
val max_line_bytes : int

(** The [bad_request] message an oversized frame yields (shared with
    {!Transport}, which rejects while still reading). *)
val oversize_message : int -> string

(** [parse_line line] never raises; a malformed line yields
    [body = Error _] with whatever ["id"] could still be recovered.
    Lines longer than [max_bytes] (default {!max_line_bytes}) are
    rejected unparsed. *)
val parse_line : ?max_bytes:int -> string -> parsed

(** Stable op tag (["compile"], ["pulses"], ...). *)
val op_name : op -> string

(** [body_key b] — the single-flight coalescing key: [Some key] iff [b]
    may share one execution with every concurrent request of equal key
    ([pulses], [compile], [stats]). The key is the exact value of [b],
    every float by its bits: two requests coalesce only when their parsed
    bodies are identical, so a waiter always gets the reply its own body
    would produce. [shutdown]/[batch] return [None]. *)
val body_key : body -> string option

(** {1 Response builders} *)

val error_response : id:Json.t -> kind:string -> stage:string -> string -> Json.t

(** Embedded (id-less) forms for batch result arrays. *)
val ok_item : op:string -> Json.t -> Json.t
val error_item : kind:string -> stage:string -> string -> Json.t
val err_item : Robust.Err.t -> Json.t

(** [with_id ~id item] prepends the ["id"] field to an item-form response. *)
val with_id : id:Json.t -> Json.t -> Json.t
