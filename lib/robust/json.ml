type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------- parsing *)

exception Parse_error of int * string

let fail pos fmt = Printf.ksprintf (fun m -> raise (Parse_error (pos, m))) fmt

type state = { s : string; mutable pos : int }

let peek st = if st.pos < String.length st.s then Some st.s.[st.pos] else None

let next st =
  match peek st with
  | Some c ->
    st.pos <- st.pos + 1;
    c
  | None -> fail st.pos "unexpected end of input"

let skip_ws st =
  while
    match peek st with
    | Some (' ' | '\t' | '\n' | '\r') ->
      st.pos <- st.pos + 1;
      true
    | _ -> false
  do
    ()
  done

let expect st c =
  let got = next st in
  if got <> c then fail (st.pos - 1) "expected %C, got %C" c got

let literal st word value =
  let n = String.length word in
  if st.pos + n <= String.length st.s && String.sub st.s st.pos n = word then begin
    st.pos <- st.pos + n;
    value
  end
  else fail st.pos "invalid literal"

(* UTF-8 encode one scalar value (already surrogate-combined) *)
let add_utf8 buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

let hex4 st =
  let v = ref 0 in
  for _ = 1 to 4 do
    let c = next st in
    let d =
      match c with
      | '0' .. '9' -> Char.code c - Char.code '0'
      | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
      | _ -> fail (st.pos - 1) "invalid \\u escape"
    in
    v := (!v lsl 4) lor d
  done;
  !v

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match next st with
    | '"' -> Buffer.contents buf
    | '\\' ->
      (match next st with
      | '"' -> Buffer.add_char buf '"'
      | '\\' -> Buffer.add_char buf '\\'
      | '/' -> Buffer.add_char buf '/'
      | 'b' -> Buffer.add_char buf '\b'
      | 'f' -> Buffer.add_char buf '\012'
      | 'n' -> Buffer.add_char buf '\n'
      | 'r' -> Buffer.add_char buf '\r'
      | 't' -> Buffer.add_char buf '\t'
      | 'u' ->
        let cp = hex4 st in
        let cp =
          (* combine a surrogate pair when one follows; a lone surrogate
             degrades to U+FFFD rather than crashing *)
          if cp >= 0xD800 && cp <= 0xDBFF then begin
            if
              st.pos + 1 < String.length st.s
              && st.s.[st.pos] = '\\'
              && st.s.[st.pos + 1] = 'u'
            then begin
              st.pos <- st.pos + 2;
              let lo = hex4 st in
              if lo >= 0xDC00 && lo <= 0xDFFF then
                0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00)
              else 0xFFFD
            end
            else 0xFFFD
          end
          else if cp >= 0xDC00 && cp <= 0xDFFF then 0xFFFD
          else cp
        in
        add_utf8 buf cp
      | c -> fail (st.pos - 1) "invalid escape \\%C" c);
      go ()
    | c when Char.code c < 0x20 -> fail (st.pos - 1) "raw control character in string"
    | c ->
      Buffer.add_char buf c;
      go ()
  in
  go ()

let parse_number st =
  let start = st.pos in
  let advance () = st.pos <- st.pos + 1 in
  if peek st = Some '-' then advance ();
  let digits () =
    let n0 = st.pos in
    while match peek st with Some '0' .. '9' -> true | _ -> false do
      advance ()
    done;
    if st.pos = n0 then fail st.pos "malformed number"
  in
  digits ();
  if peek st = Some '.' then begin
    advance ();
    digits ()
  end;
  (match peek st with
  | Some ('e' | 'E') ->
    advance ();
    (match peek st with Some ('+' | '-') -> advance () | _ -> ());
    digits ()
  | _ -> ());
  match float_of_string_opt (String.sub st.s start (st.pos - start)) with
  | Some v -> v
  | None -> fail start "malformed number"

(* deep nesting must come back as a located error, not a stack overflow:
   a hostile frame of 100k '['s would otherwise blow the parser's native
   stack before any grammar rule gets a chance to object *)
let max_depth = 512

let rec parse_value st depth =
  if depth > max_depth then
    fail st.pos "nesting deeper than %d levels" max_depth;
  skip_ws st;
  match peek st with
  | None -> fail st.pos "unexpected end of input"
  | Some '{' ->
    st.pos <- st.pos + 1;
    skip_ws st;
    if peek st = Some '}' then begin
      st.pos <- st.pos + 1;
      Obj []
    end
    else begin
      let rec members acc =
        skip_ws st;
        let k = parse_string st in
        skip_ws st;
        expect st ':';
        let v = parse_value st (depth + 1) in
        skip_ws st;
        match next st with
        | ',' -> members ((k, v) :: acc)
        | '}' -> Obj (List.rev ((k, v) :: acc))
        | c -> fail (st.pos - 1) "expected ',' or '}', got %C" c
      in
      members []
    end
  | Some '[' ->
    st.pos <- st.pos + 1;
    skip_ws st;
    if peek st = Some ']' then begin
      st.pos <- st.pos + 1;
      Arr []
    end
    else begin
      let rec items acc =
        let v = parse_value st (depth + 1) in
        skip_ws st;
        match next st with
        | ',' -> items (v :: acc)
        | ']' -> Arr (List.rev (v :: acc))
        | c -> fail (st.pos - 1) "expected ',' or ']', got %C" c
      in
      items []
    end
  | Some '"' -> Str (parse_string st)
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some ('-' | '0' .. '9') -> Num (parse_number st)
  | Some c -> fail st.pos "unexpected character %C" c

let parse s =
  let st = { s; pos = 0 } in
  match parse_value st 0 with
  | v ->
    skip_ws st;
    if st.pos <> String.length s then
      Error (Printf.sprintf "trailing garbage at offset %d" st.pos)
    else Ok v
  | exception Parse_error (pos, msg) ->
    Error (Printf.sprintf "%s at offset %d" msg pos)

(* ------------------------------------------------------------ emitting *)

let escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let number_to_string v =
  if Float.is_nan v then "null" (* NaN has no JSON spelling *)
  else if v = Float.infinity then "1e999"
  else if v = Float.neg_infinity then "-1e999"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else begin
    (* shortest decimal that round-trips *)
    let s = Printf.sprintf "%.15g" v in
    if float_of_string s = v then s else Printf.sprintf "%.17g" v
  end

let rec emit buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num v -> Buffer.add_string buf (number_to_string v)
  | Str s -> escape buf s
  | Arr items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char buf ',';
        emit buf v)
      items;
    Buffer.add_char buf ']'
  | Obj members ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        escape buf k;
        Buffer.add_char buf ':';
        emit buf v)
      members;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  emit buf v;
  Buffer.contents buf

(* ----------------------------------------------------------- accessors *)

let member k = function Obj ms -> List.assoc_opt k ms | _ -> None
let str = function Str s -> Some s | _ -> None
let num = function Num v -> Some v | _ -> None

let int = function
  | Num v when Float.is_integer v && Float.abs v <= 1e15 -> Some (int_of_float v)
  | _ -> None

let bool = function Bool b -> Some b | _ -> None
let arr = function Arr items -> Some items | _ -> None
let mem_str k v = Option.bind (member k v) str
let mem_num k v = Option.bind (member k v) num
let mem_int k v = Option.bind (member k v) int
let mem_bool k v = Option.bind (member k v) bool
let mem_arr k v = Option.bind (member k v) arr
