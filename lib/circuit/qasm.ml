open Numerics

(* ------------------------------------------------------------ printing *)

let mat_params m =
  let n = Mat.rows m in
  let buf = Buffer.create 128 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let v = Mat.get m i j in
      if i > 0 || j > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Printf.sprintf "%.17g,%.17g" (Cx.re v) (Cx.im v))
    done
  done;
  Buffer.contents buf

let gate_line (g : Gate.t) =
  let qs = String.concat "," (List.map (fun q -> Printf.sprintf "q[%d]" q) (Array.to_list g.qubits)) in
  let simple = [ "x"; "y"; "z"; "h"; "s"; "sdg"; "t"; "tdg"; "cx"; "cz"; "swap"; "iswap"; "ccx"; "cswap"; "ccz"; "peres" ] in
  (* constant gates keep their readable names; parametrized gates are
     written as explicit unitaries so the round-trip is exact (the parser
     still accepts hand-written rx/ry/rz/u3/cp/rzz/can forms) *)
  if List.mem g.label simple then Printf.sprintf "%s %s;" g.label qs
  else Printf.sprintf "unitary(%s) %s;" (mat_params g.mat) qs

let to_string (c : Circuit.t) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "REQASM 1.0;\n";
  Buffer.add_string buf (Printf.sprintf "qreg q[%d];\n" c.n);
  List.iter
    (fun g ->
      Buffer.add_string buf (gate_line g);
      Buffer.add_char buf '\n')
    c.gates;
  Buffer.contents buf

(* ------------------------------------------------------------- parsing *)

type parse_error = { line : int; column : int; token : string; message : string }

let parse_error_to_string e =
  if e.token = "" then
    Printf.sprintf "line %d, column %d: %s" e.line e.column e.message
  else
    Printf.sprintf "line %d, column %d: %s (at %S)" e.line e.column e.message e.token

(* internal: every parse failure carries line/column/token; [parse] catches
   this, so it never escapes the module *)
exception Parse_failure of parse_error

(* parsing context: the 1-based line number plus the raw line text, used to
   recover the column of an offending token *)
type ctx = { lineno : int; raw : string }

let column_of ctx token =
  if token = "" then 1
  else begin
    let tl = String.length token and rl = String.length ctx.raw in
    let rec find i =
      if i + tl > rl then 1
      else if String.sub ctx.raw i tl = token then i + 1
      else find (i + 1)
    in
    find 0
  end

let err ctx ?(token = "") message =
  raise
    (Parse_failure { line = ctx.lineno; column = column_of ctx token; token; message })

let parse_floats ctx s =
  List.map
    (fun tok ->
      match float_of_string_opt (String.trim tok) with
      | Some f -> f
      | None -> err ctx ~token:(String.trim tok) "bad float literal")
    (String.split_on_char ',' s)

let parse_qubits ctx s =
  List.map
    (fun tok ->
      let tok = String.trim tok in
      try Scanf.sscanf tok "q[%d]" (fun i -> i)
      with _ -> err ctx ~token:tok "bad qubit reference (expected q[<int>])")
    (String.split_on_char ',' s)

(* split "name(args) q[..],q[..]" into (name, Some args, qubit string) *)
let split_gate ctx str =
  let str = String.trim str in
  let first_space =
    match String.index_opt str ' ' with
    | Some i -> i
    | None -> err ctx ~token:str "missing qubit operands"
  in
  match String.index_opt str '(' with
  | Some i when i < first_space ->
    let close =
      match String.rindex_opt str ')' with
      | Some c -> c
      | None -> err ctx ~token:str "unbalanced parentheses"
    in
    let name = String.sub str 0 i in
    let args = String.sub str (i + 1) (close - i - 1) in
    let rest = String.sub str (close + 1) (String.length str - close - 1) in
    (name, Some args, String.trim rest)
  | _ -> (
    match String.index_opt str ' ' with
    | Some i ->
      ( String.sub str 0 i,
        None,
        String.trim (String.sub str (i + 1) (String.length str - i - 1)) )
    | None -> err ctx ~token:str "missing qubit operands")

let build_gate ctx name args qubits =
  let fail_at _line msg = err ctx ~token:name msg in
  let line = ctx.lineno in
  let parse_floats s = parse_floats ctx s in
  let q i = List.nth qubits i in
  let arity k =
    if List.length qubits <> k then fail_at line (name ^ ": wrong qubit count")
  in
  let one_arg () =
    match args with
    | Some a -> ( match parse_floats a with [ f ] -> f | _ -> fail_at line "expected one parameter")
    | None -> fail_at line "missing parameter"
  in
  match name with
  | "x" -> arity 1; Gate.x (q 0)
  | "y" -> arity 1; Gate.y (q 0)
  | "z" -> arity 1; Gate.z (q 0)
  | "h" -> arity 1; Gate.h (q 0)
  | "s" -> arity 1; Gate.s (q 0)
  | "sdg" -> arity 1; Gate.sdg (q 0)
  | "t" -> arity 1; Gate.t (q 0)
  | "tdg" -> arity 1; Gate.tdg (q 0)
  | "rx" -> arity 1; Gate.rx (q 0) (one_arg ())
  | "ry" -> arity 1; Gate.ry (q 0) (one_arg ())
  | "rz" -> arity 1; Gate.rz (q 0) (one_arg ())
  | "u3" ->
    arity 1;
    (match Option.map parse_floats args with
    | Some [ a; b; c ] -> Gate.u3 (q 0) a b c
    | _ -> fail_at line "u3 expects 3 parameters")
  | "cx" -> arity 2; Gate.cx (q 0) (q 1)
  | "cz" -> arity 2; Gate.cz (q 0) (q 1)
  | "swap" -> arity 2; Gate.swap (q 0) (q 1)
  | "iswap" -> arity 2; Gate.iswap (q 0) (q 1)
  | "cp" -> arity 2; Gate.cphase (q 0) (q 1) (one_arg ())
  | "rzz" -> arity 2; Gate.rzz (q 0) (q 1) (one_arg ())
  | "can" ->
    arity 2;
    (match Option.map parse_floats args with
    | Some [ a; b; c ] -> Gate.can (q 0) (q 1) a b c
    | _ -> fail_at line "can expects 3 parameters")
  | "ccx" -> arity 3; Gate.ccx (q 0) (q 1) (q 2)
  | "cswap" -> arity 3; Gate.cswap (q 0) (q 1) (q 2)
  | "ccz" -> arity 3; Gate.ccz (q 0) (q 1) (q 2)
  | "peres" -> arity 3; Gate.peres (q 0) (q 1) (q 2)
  | "unitary" -> (
    match Option.map parse_floats args with
    | Some entries ->
      let k = List.length qubits in
      let dim = 1 lsl k in
      if List.length entries <> 2 * dim * dim then
        fail_at line "unitary: wrong entry count";
      let arr = Array.of_list entries in
      let m =
        Mat.init dim dim (fun i j ->
            let base = 2 * ((i * dim) + j) in
            Cx.mk arr.(base) arr.(base + 1))
      in
      Gate.make (if k = 1 then "u" else "su4") (Array.of_list qubits) m
    | None -> fail_at line "unitary: missing entries")
  | other -> fail_at line ("unknown gate " ^ other)

let parse s =
  try
    let lines = String.split_on_char '\n' s in
    let n = ref 0 in
    let gates = ref [] in
    List.iteri
      (fun idx raw ->
        let ctx = { lineno = idx + 1; raw } in
        let line = String.trim raw in
        let line =
          match String.index_opt line '/' with
          | Some i when i + 1 < String.length line && line.[i + 1] = '/' ->
            String.trim (String.sub line 0 i)
          | _ -> line
        in
        if line <> "" then begin
          let stmt =
            if String.length line > 0 && line.[String.length line - 1] = ';' then
              String.sub line 0 (String.length line - 1)
            else line
          in
          let stmt = String.trim stmt in
          if String.length stmt >= 6 && String.sub stmt 0 6 = "REQASM" then ()
          else if String.length stmt >= 4 && String.sub stmt 0 4 = "qreg" then begin
            try Scanf.sscanf stmt "qreg q[%d]" (fun k -> n := k)
            with _ -> err ctx ~token:stmt "malformed qreg declaration"
          end
          else begin
            let name, args, qstr = split_gate ctx stmt in
            let qubits = parse_qubits ctx qstr in
            gates := build_gate ctx name args qubits :: !gates
          end
        end)
      lines;
    if !n = 0 then
      Error { line = 1; column = 1; token = ""; message = "missing qreg declaration" }
    else Ok (Circuit.create !n (List.rev !gates))
  with Parse_failure e -> Error e

let save path c =
  let oc = open_out path in
  output_string oc (to_string c);
  close_out oc

let read_file path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let parse_file path = parse (read_file path)
