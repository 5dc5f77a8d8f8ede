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

type parsed = { id : Json.t; body : (body, string) result }

let version = 1

let op_name = function
  | Compile _ -> "compile"
  | Pulses _ -> "pulses"
  | Batch _ -> "batch"
  | Stats -> "stats"
  | Shutdown -> "shutdown"

let ( let* ) = Result.bind

let parse_budget json =
  match Json.member "budget" json with
  | None | Some Json.Null -> Ok None
  | Some (Json.Obj _ as b) -> (
    let iters = Json.member "max_iterations" b in
    let secs = Json.member "max_seconds" b in
    match (iters, secs) with
    | (None | Some Json.Null), (None | Some Json.Null) ->
      Error "budget needs max_iterations and/or max_seconds"
    | _ -> (
      match
        ( Option.map Json.int iters,
          Option.map Json.num secs )
      with
      | Some None, _ -> Error "budget.max_iterations must be an integer"
      | _, Some None -> Error "budget.max_seconds must be a number"
      | i, s ->
        Ok
          (Some
             {
               max_iterations = Option.join i;
               max_seconds = Option.join s;
             })))
  | Some _ -> Error "budget must be an object"

(* An end-to-end deadline in milliseconds, measured by the client from
   send time; absent (or null) means "no deadline" so "v":1 traffic is
   unchanged. Zero is legal — it means "answer only if you can do so
   immediately", i.e. an expired-on-arrival probe. *)
let parse_deadline json =
  match Json.member "deadline_ms" json with
  | None | Some Json.Null -> Ok None
  | Some v -> (
    match Json.num v with
    | Some ms when ms >= 0.0 && Float.is_finite ms -> Ok (Some ms)
    | Some _ -> Error "deadline_ms must be a finite number >= 0"
    | None -> Error "deadline_ms must be a number")

(* optional custom pass plan: validated against the registry here, so an
   unknown pass is a typed bad_request before any work is queued (and the
   engine can build the plan infallibly) *)
let parse_passes json =
  match Json.member "passes" json with
  | None | Some Json.Null -> Ok None
  | Some (Json.Arr items) ->
    if items = [] then Error "passes must be a non-empty array of pass names"
    else begin
      let rec go acc = function
        | [] -> Ok (Some (List.rev acc))
        | item :: rest -> (
          match Json.str item with
          | Some name -> go (name :: acc) rest
          | None -> Error "passes must be an array of pass-name strings")
      in
      match go [] items with
      | Error _ as e -> e
      | Ok (Some names) as ok -> (
        match
          List.filter (fun n -> Compiler.Passes.find n = None) names
        with
        | [] -> ok
        | unknown ->
          Error
            (Printf.sprintf "unknown pass%s %s (known passes: %s)"
               (if List.length unknown > 1 then "es" else "")
               (String.concat ", " unknown)
               (String.concat ", " Compiler.Passes.known_names)))
      | Ok None -> Ok None
    end
  | Some _ -> Error "passes must be an array of pass names"

(* an optional member: absent or null is [None]; a value of another type
   is a bad_request naming the field, never a silent default *)
let optional k conv ~expected json =
  match Json.member k json with
  | None | Some Json.Null -> Ok None
  | Some v -> (
    match conv v with
    | Some x -> Ok (Some x)
    | None -> Error (Printf.sprintf "%s must be %s" k expected))

let parse_target json =
  match (Json.member "gate" json, Json.member "coords" json) with
  | Some _, Some _ -> Error "give either gate or coords, not both"
  | Some g, None -> (
    match Json.str g with
    | Some name -> Ok (Gate name)
    | None -> Error "gate must be a string")
  | None, Some c -> (
    match Json.arr c with
    | Some [ x; y; z ] -> (
      match (Json.num x, Json.num y, Json.num z) with
      | Some x, Some y, Some z -> Ok (Coords (x, y, z))
      | _ -> Error "coords must be [x, y, z] numbers")
    | _ -> Error "coords must be [x, y, z]")
  | None, None -> Error "pulses needs a gate or coords target"

(* [depth] rejects batches inside batches *)
let rec parse_body ?(depth = 0) json =
  let* budget = parse_budget json in
  let* deadline_ms = parse_deadline json in
  let* op =
    match Json.mem_str "op" json with
    | None -> Error "missing op"
    | Some "compile" -> (
      match Json.mem_str "bench" json with
      | None -> Error "compile needs a bench name"
      | Some bench -> (
        let* pulses = optional "pulses" Json.bool ~expected:"a boolean" json in
        let pulses = Option.value ~default:false pulses in
        let* passes = parse_passes json in
        (* the isa member rides along verbatim: the engine validates it,
           so a bad value is a typed error at the compiler's stage
           ("compiler.isa"), not a protocol-stage parse failure *)
        let isa =
          match Json.member "isa" json with
          | None | Some Json.Null -> None
          | Some v -> Some v
        in
        let* mode = optional "mode" Json.str ~expected:"a string" json in
        let* mode =
          match mode with
          | None -> Ok Compiler.Passes.Eff
          | Some m -> (
            match Compiler.Passes.mode_of_name m with
            | Some mode -> Ok mode
            | None -> Error (Printf.sprintf "unknown mode %S (expected eff|full|nc)" m))
        in
        Ok (Compile { bench; mode; pulses; passes; isa })))
    | Some "pulses" -> (
      let* target = parse_target json in
      let* passes = parse_passes json in
      let* () =
        match (target, passes) with
        | Coords _, Some _ ->
          Error "passes applies only to gate targets (coords have no circuit)"
        | _ -> Ok ()
      in
      let* coupling = optional "coupling" Json.str ~expected:"a string" json in
      match Option.value ~default:"xy" coupling with
      | ("xy" | "xx") as coupling -> Ok (Pulses { target; coupling; passes })
      | c -> Error (Printf.sprintf "unknown coupling %S (expected xy|xx)" c))
    | Some "batch" -> (
      if depth > 0 then Error "nested batch requests are not allowed"
      else
        match Json.mem_arr "requests" json with
        | None -> Error "batch needs a requests array"
        | Some items ->
          let rec go acc = function
            | [] -> Ok (Batch (List.rev acc))
            | item :: rest ->
              let* b = parse_body ~depth:1 item in
              go (b :: acc) rest
          in
          go [] items)
    | Some "stats" -> Ok Stats
    | Some "shutdown" -> Ok Shutdown
    | Some op -> Error (Printf.sprintf "unknown op %S" op)
  in
  Ok { op; budget; deadline_ms }

(* ------------------------------------------------------- coalescing key *)

(* Single-flight coalescing key: the exact value of the parsed body.
   Marshal writes every float as its 8 IEEE bytes, so two bodies share a
   key only when they are equal field for field with each float equal
   bit for bit ([compare] would merge -0.0 with 0.0). Parsing has already
   normalised what a request may omit (an absent mode is eff, a null
   passes is no plan). [stats] coalesces because every waiter was in
   flight when the snapshot was taken, so handing all of them the same
   answer is linearizable. [shutdown] is a control action and [batch]
   items execute inline under their envelope, so neither coalesces. *)
let body_key (b : body) =
  match b.op with
  | Shutdown | Batch _ -> None
  | Stats | Pulses _ | Compile _ -> Some (Marshal.to_string b [ Marshal.No_sharing ])

let max_line_bytes = 1 lsl 20

let oversize_message limit =
  Printf.sprintf "request line exceeds the %d-byte frame limit" limit

let parse_line ?(max_bytes = max_line_bytes) line =
  if String.length line > max_bytes then
    (* reject before parsing: the id is inside the oversized frame and is
       deliberately not recovered (the whole point is not to chew on it) *)
    { id = Json.Null; body = Error (oversize_message max_bytes) }
  else
  match Json.parse line with
  | Error e -> { id = Json.Null; body = Error (Printf.sprintf "malformed JSON: %s" e) }
  | Ok (Json.Obj _ as json) -> (
    let id = Option.value ~default:Json.Null (Json.member "id" json) in
    (* version negotiation: every request carries "v"; an absent or alien
       version is rejected before the op is even looked at, so protocol
       evolution can change op semantics without silent misreads *)
    match Json.mem_int "v" json with
    | None ->
      { id; body = Error (Printf.sprintf "missing protocol version (send \"v\": %d)" version) }
    | Some v when v <> version ->
      {
        id;
        body =
          Error
            (Printf.sprintf "unsupported protocol version %d (this server speaks %d)" v
               version);
      }
    | Some _ -> { id; body = parse_body json })
  | Ok _ -> { id = Json.Null; body = Error "request must be a JSON object" }

(* --------------------------------------------------------- responses *)

let vfield = ("v", Json.Num (float_of_int version))

let ok_item ~op result =
  Json.Obj [ vfield; ("ok", Json.Bool true); ("op", Json.Str op); ("result", result) ]

let error_item ~kind ~stage message =
  Json.Obj
    [
      vfield;
      ("ok", Json.Bool false);
      ( "error",
        Json.Obj
          [
            ("kind", Json.Str kind);
            ("stage", Json.Str stage);
            ("message", Json.Str message);
          ] );
    ]

let err_item e =
  error_item ~kind:(Robust.Err.kind e) ~stage:(Robust.Err.stage e) (Robust.Err.to_string e)

let with_id ~id = function
  | Json.Obj members -> Json.Obj (("id", id) :: members)
  | v -> v

let error_response ~id ~kind ~stage message = with_id ~id (error_item ~kind ~stage message)
