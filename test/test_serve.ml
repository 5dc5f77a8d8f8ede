(* Compilation server: JSON wire format, protocol parsing, and the server
   loop driven over temp-file channels — malformed input, budget
   exhaustion and injected solver faults must all come back as typed JSON
   error responses (never a dead worker), and the server must keep
   serving afterwards and drain cleanly. *)

let disarm () = Robust.Fault.configure None

(* one class computed by the pulse solver: a root search, or a hit in the
   solver's class memo standing in for one *)
let class_computations () =
  Robust.Counters.get ~stage:"genashn" "solve_run"
  + Robust.Counters.get ~stage:"genashn" "memo_hit"

let with_faults spec f =
  Robust.Fault.configure (Some spec);
  Fun.protect ~finally:disarm f

let xy = Microarch.Coupling.xy ~g:1.0

(* a Weyl chamber point planned onto an EA subscheme, so budgets and
   ea_noconv faults bite (same probing as test_robust) *)
let ea_xyz =
  let candidates =
    [ (0.5, 0.3, 0.1); (0.7, 0.2, 0.1); (0.6, 0.5, 0.4); (0.3, 0.2, 0.1);
      (0.75, 0.4, 0.0) ]
  in
  let is_ea (x, y, z) =
    let c = Weyl.Coords.make x y z in
    match (Microarch.Tau.plan xy c).Microarch.Tau.subscheme with
    | Microarch.Tau.EA_same | Microarch.Tau.EA_opposite -> true
    | Microarch.Tau.ND -> false
  in
  match List.find_opt is_ea candidates with
  | Some xyz -> xyz
  | None -> Alcotest.fail "no EA-subscheme candidate coords under XY coupling"

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* ----------------------------------------------------------------- json *)

let rec json_eq a b =
  match (a, b) with
  | Robust.Json.Num x, Robust.Json.Num y -> Int64.bits_of_float x = Int64.bits_of_float y
  | Robust.Json.Arr xs, Robust.Json.Arr ys ->
    List.length xs = List.length ys && List.for_all2 json_eq xs ys
  | Robust.Json.Obj xs, Robust.Json.Obj ys ->
    List.length xs = List.length ys
    && List.for_all2 (fun (k, v) (k', v') -> k = k' && json_eq v v') xs ys
  | _ -> a = b

let test_json_roundtrip () =
  let samples =
    [
      "null"; "true"; "false"; "0"; "-12"; "3.5"; "1e-3"; "\"\"";
      "\"a b\\n\\t\\\"c\\\"\""; "[]"; "[1,[2,[3]]]"; "{}";
      "{\"a\":1,\"b\":[true,null],\"c\":{\"d\":\"e\"}}";
    ]
  in
  List.iter
    (fun s ->
      match Robust.Json.parse s with
      | Error e -> Alcotest.failf "parse %s: %s" s e
      | Ok v -> (
        match Robust.Json.parse (Robust.Json.to_string v) with
        | Error e -> Alcotest.failf "reparse %s: %s" s e
        | Ok v' ->
          Alcotest.(check bool) ("round trip " ^ s) true (json_eq v v')))
    samples;
  (* floats survive the emitter exactly *)
  List.iter
    (fun f ->
      match Robust.Json.parse (Robust.Json.to_string (Robust.Json.Num f)) with
      | Ok (Robust.Json.Num f') ->
        Alcotest.(check bool)
          (Printf.sprintf "float %.17g" f)
          true
          (Int64.bits_of_float f = Int64.bits_of_float f')
      | _ -> Alcotest.failf "float %.17g did not round trip" f)
    [ 0.1; -1.0 /. 3.0; Float.pi; 1e-300; 9.007199254740993e15 ]

let test_json_unicode () =
  (match Robust.Json.parse "\"\\u0041\\u00e9\"" with
  | Ok (Robust.Json.Str s) -> Alcotest.(check string) "bmp escapes" "A\xc3\xa9" s
  | _ -> Alcotest.fail "bmp escape parse");
  match Robust.Json.parse "\"\\ud83d\\ude00\"" with
  | Ok (Robust.Json.Str s) ->
    Alcotest.(check string) "surrogate pair to utf-8" "\xf0\x9f\x98\x80" s
  | _ -> Alcotest.fail "surrogate pair parse"

let test_json_malformed () =
  List.iter
    (fun s ->
      match Robust.Json.parse s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected parse error for %s" s)
    [
      ""; "{"; "}"; "{\"a\"}"; "{\"a\":}"; "[1,]"; "[1 2]"; "\"unterminated";
      "\"bad \\x escape\""; "truef"; "1.2.3"; "{\"a\":1} trailing"; "nul";
    ]

let test_json_accessors () =
  match Robust.Json.parse "{\"n\":3,\"s\":\"x\",\"b\":true,\"a\":[1]}" with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok v ->
    Alcotest.(check (option int)) "int" (Some 3) (Robust.Json.mem_int "n" v);
    Alcotest.(check (option string)) "str" (Some "x") (Robust.Json.mem_str "s" v);
    Alcotest.(check (option bool)) "bool" (Some true) (Robust.Json.mem_bool "b" v);
    Alcotest.(check (option int)) "shape mismatch" None (Robust.Json.mem_int "s" v);
    Alcotest.(check (option int)) "missing member" None (Robust.Json.mem_int "zz" v)

(* --------------------------------------------- json property round-trip *)

(* seeded random document generator: nesting, unicode escapes (raw UTF-8
   and control bytes the emitter must \u-escape), and extreme floats —
   parse (emit v) must reproduce v bit-for-bit *)

let str_palette =
  [|
    "a"; "key"; " "; "\""; "\\"; "/"; "\n"; "\t"; "\r"; "\x01"; "\x1f";
    "\xc3\xa9" (* é *); "\xe2\x86\x92" (* → *); "\xf0\x9f\x98\x80" (* 😀 *);
    "{"; "}"; "[,]"; ":"; "0"; "e";
  |]

let gen_str rng =
  let n = Random.State.int rng 5 in
  let buf = Buffer.create 8 in
  for _ = 1 to n do
    Buffer.add_string buf str_palette.(Random.State.int rng (Array.length str_palette))
  done;
  Buffer.contents buf

let gen_num rng =
  match Random.State.int rng 6 with
  | 0 -> float_of_int (Random.State.int rng 2001 - 1000)
  | 1 -> Random.State.float rng 2.0 -. 1.0
  | 2 -> (Random.State.float rng 2.0 -. 1.0) *. 1e300
  | 3 -> (Random.State.float rng 2.0 -. 1.0) *. 1e-300 (* subnormal territory *)
  | 4 ->
    (* arbitrary finite bit patterns: the harshest emitter test *)
    let rec finite () =
      let f = Int64.float_of_bits (Random.State.int64 rng Int64.max_int) in
      if Float.is_nan f then finite () else f
    in
    finite ()
  | _ ->
    [| 0.0; -0.0; Float.max_float; Float.min_float; epsilon_float; 5e-324;
       9.007199254740993e15 |].(Random.State.int rng 7)

let gen_json rng =
  let key_id = ref 0 in
  let rec go depth =
    let cap = if depth >= 6 then 4 else 6 in
    match Random.State.int rng cap with
    | 0 -> Robust.Json.Null
    | 1 -> Robust.Json.Bool (Random.State.bool rng)
    | 2 -> Robust.Json.Num (gen_num rng)
    | 3 -> Robust.Json.Str (gen_str rng)
    | 4 -> Robust.Json.Arr (List.init (Random.State.int rng 5) (fun _ -> go (depth + 1)))
    | _ ->
      Robust.Json.Obj
        (List.init (Random.State.int rng 5) (fun _ ->
             (* counter suffix keeps keys distinct within one object *)
             incr key_id;
             (Printf.sprintf "%s#%d" (gen_str rng) !key_id, go (depth + 1))))
  in
  go 0

let test_json_property_roundtrip () =
  let rng = Random.State.make [| 0x5eed; 2026 |] in
  for case = 1 to 512 do
    let v = gen_json rng in
    let s = Robust.Json.to_string v in
    match Robust.Json.parse s with
    | Error e -> Alcotest.failf "case %d: reparse of %s failed: %s" case s e
    | Ok v' ->
      if not (json_eq v v') then
        Alcotest.failf "case %d: round trip mismatch\nemitted:  %s\nreparsed: %s" case s
          (Robust.Json.to_string v')
  done;
  (* infinities have a parseable spelling; NaN collapses to null by design *)
  List.iter
    (fun f ->
      match Robust.Json.parse (Robust.Json.to_string (Robust.Json.Num f)) with
      | Ok (Robust.Json.Num f') ->
        Alcotest.(check bool) "infinity round trips" true
          (Int64.bits_of_float f = Int64.bits_of_float f')
      | _ -> Alcotest.fail "infinity did not round trip")
    [ Float.infinity; Float.neg_infinity ];
  match Robust.Json.parse (Robust.Json.to_string (Robust.Json.Num Float.nan)) with
  | Ok Robust.Json.Null -> ()
  | _ -> Alcotest.fail "NaN must emit as null"

let test_json_rejection_corpus () =
  let deep n = String.concat "" (List.init n (fun _ -> "[")) ^ "0" in
  let reject s label =
    match Robust.Json.parse s with
    | Ok _ -> Alcotest.failf "accepted %s" label
    | Error msg ->
      (* every rejection is a located error (never an exception) *)
      Alcotest.(check bool)
        (Printf.sprintf "%s error is located: %s" label msg)
        true (contains msg "offset")
  in
  (* truncations *)
  List.iter
    (fun s -> reject s ("truncated " ^ s))
    [ "{\"a\":"; "[1,"; "\"half"; "{\"a\":1"; "[{\"b\":[" ; "12e"; "-" ];
  (* trailing garbage *)
  List.iter
    (fun s -> reject s ("trailing " ^ s))
    [ "1 2"; "{} {}"; "null,"; "[1]]" ];
  (* NaN / Infinity have no JSON spelling on the way in *)
  List.iter (fun s -> reject s s) [ "NaN"; "Infinity"; "-Infinity"; "nan"; "inf" ];
  (* nesting: the cap admits max_depth levels and rejects one more *)
  (match Robust.Json.parse (deep Robust.Json.max_depth ^ String.make Robust.Json.max_depth ']') with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "depth %d should parse: %s" Robust.Json.max_depth e);
  (match Robust.Json.parse (deep (Robust.Json.max_depth + 1)) with
  | Ok _ -> Alcotest.fail "past-cap nesting accepted"
  | Error msg ->
    Alcotest.(check bool) "names the nesting cap" true (contains msg "nesting");
    Alcotest.(check bool) "located" true (contains msg "offset"))

(* ------------------------------------------------------------- protocol *)

let parse_body line =
  let p = Serve.Protocol.parse_line line in
  p.Serve.Protocol.body

let test_protocol_parse_ok () =
  (match parse_body "{\"v\":1,\"op\":\"compile\",\"bench\":\"alu_2\",\"mode\":\"full\",\"pulses\":true}" with
  | Ok { Serve.Protocol.op = Serve.Protocol.Compile { bench; mode; pulses; _ }; budget; _ } ->
    Alcotest.(check string) "bench" "alu_2" bench;
    Alcotest.(check bool) "mode" true (mode = Compiler.Passes.Full);
    Alcotest.(check bool) "pulses" true pulses;
    Alcotest.(check bool) "no budget" true (budget = None)
  | _ -> Alcotest.fail "compile body");
  (match parse_body "{\"v\":1,\"op\":\"pulses\",\"coords\":[0.5,0.3,0.1],\"budget\":{\"max_iterations\":5}}" with
  | Ok
      {
        Serve.Protocol.op = Serve.Protocol.Pulses { target = Serve.Protocol.Coords (x, y, z); _ };
        budget = Some b;
        _;
      } ->
    Alcotest.(check (float 0.0)) "x" 0.5 x;
    Alcotest.(check (float 0.0)) "y" 0.3 y;
    Alcotest.(check (float 0.0)) "z" 0.1 z;
    Alcotest.(check (option int)) "budget iterations" (Some 5)
      b.Serve.Protocol.max_iterations
  | _ -> Alcotest.fail "pulses coords body");
  match parse_body "{\"v\":1,\"op\":\"batch\",\"requests\":[{\"op\":\"stats\"},{\"op\":\"pulses\",\"gate\":\"cz\"}]}" with
  | Ok { Serve.Protocol.op = Serve.Protocol.Batch items; _ } ->
    Alcotest.(check int) "batch size" 2 (List.length items)
  | _ -> Alcotest.fail "batch body"

let test_protocol_parse_errors () =
  let expect_err line frag =
    match parse_body line with
    | Error msg ->
      Alcotest.(check bool)
        (Printf.sprintf "%s mentions %s" line frag)
        true (contains msg frag)
    | Ok _ -> Alcotest.failf "expected error for %s" line
  in
  expect_err "not json at all" "";
  expect_err "{\"v\":1,\"op\":\"nope\"}" "nope";
  expect_err "{\"v\":1,\"id\":1}" "op";
  expect_err "{\"v\":1,\"op\":\"compile\"}" "bench";
  expect_err "{\"v\":1,\"op\":\"compile\",\"bench\":\"alu_2\",\"mode\":\"hyper\"}" "mode";
  expect_err "{\"v\":1,\"op\":\"pulses\"}" "gate";
  expect_err "{\"v\":1,\"op\":\"pulses\",\"gate\":\"cz\",\"coords\":[0.1,0.0,0.0]}" "";
  expect_err "{\"v\":1,\"op\":\"pulses\",\"gate\":\"cz\",\"coupling\":\"zz\"}" "coupling";
  expect_err "{\"v\":1,\"op\":\"batch\",\"requests\":[{\"op\":\"batch\",\"requests\":[]}]}" "batch";
  (* a malformed line still recovers the id when one is readable *)
  let p = Serve.Protocol.parse_line "{\"v\":1,\"id\":42,\"op\":\"nope\"}" in
  Alcotest.(check (option int)) "recovered id" (Some 42)
    (Robust.Json.int p.Serve.Protocol.id)

(* mode, pulses and coupling: a wrong type names the field, an absent
   field keeps its default *)
let test_protocol_typed_fields () =
  let expect_err line field =
    match parse_body line with
    | Error msg ->
      Alcotest.(check bool) (Printf.sprintf "%s names %s" line field) true (contains msg field)
    | Ok _ -> Alcotest.failf "expected a bad_request for %s" line
  in
  expect_err "{\"v\":1,\"op\":\"compile\",\"bench\":\"alu_1\",\"mode\":42}" "mode";
  expect_err "{\"v\":1,\"op\":\"compile\",\"bench\":\"alu_1\",\"pulses\":\"yes\"}" "pulses";
  expect_err "{\"v\":1,\"op\":\"pulses\",\"gate\":\"cz\",\"coupling\":7}" "coupling";
  (match parse_body "{\"v\":1,\"op\":\"compile\",\"bench\":\"alu_1\"}" with
  | Ok { Serve.Protocol.op = Serve.Protocol.Compile { mode; pulses; _ }; _ } ->
    Alcotest.(check bool) "absent mode is eff" true (mode = Compiler.Passes.Eff);
    Alcotest.(check bool) "absent pulses is false" false pulses
  | _ -> Alcotest.fail "compile with defaults");
  match parse_body "{\"v\":1,\"op\":\"pulses\",\"gate\":\"cz\"}" with
  | Ok { Serve.Protocol.op = Serve.Protocol.Pulses { coupling; _ }; _ } ->
    Alcotest.(check string) "absent coupling is xy" "xy" coupling
  | _ -> Alcotest.fail "pulses with defaults"

let test_protocol_passes () =
  (* a custom plan parses into the op *)
  (match
     parse_body
       "{\"v\":1,\"op\":\"compile\",\"bench\":\"alu_2\",\"passes\":[\"lower_3q\",\"template\",\"mirroring\"]}"
   with
  | Ok { Serve.Protocol.op = Serve.Protocol.Compile { passes = Some ps; _ }; _ } ->
    Alcotest.(check (list string)) "pass names"
      [ "lower_3q"; "template"; "mirroring" ] ps
  | _ -> Alcotest.fail "compile with passes");
  (match parse_body "{\"v\":1,\"op\":\"pulses\",\"gate\":\"cz\",\"passes\":[\"lower_3q\",\"template\"]}" with
  | Ok { Serve.Protocol.op = Serve.Protocol.Pulses { passes = Some _; _ }; _ } -> ()
  | _ -> Alcotest.fail "pulses gate with passes");
  (* unknown names are typed bad requests naming the registry *)
  (match parse_body "{\"v\":1,\"op\":\"compile\",\"bench\":\"alu_2\",\"passes\":[\"nope\"]}" with
  | Error msg ->
    Alcotest.(check bool) "names the unknown pass" true (contains msg "nope");
    Alcotest.(check bool) "names the registry" true (contains msg "known passes");
    Alcotest.(check bool) "mentions peephole" true (contains msg "peephole")
  | Ok _ -> Alcotest.fail "unknown pass accepted");
  (* an empty array is an error, not an empty plan *)
  (match parse_body "{\"v\":1,\"op\":\"compile\",\"bench\":\"alu_2\",\"passes\":[]}" with
  | Error msg -> Alcotest.(check bool) "empty plan rejected" true (contains msg "non-empty")
  | Ok _ -> Alcotest.fail "empty passes accepted");
  (match parse_body "{\"v\":1,\"op\":\"compile\",\"bench\":\"alu_2\",\"passes\":[1]}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-string pass accepted");
  (* coords have no circuit to compile, so passes cannot apply *)
  (match
     parse_body "{\"v\":1,\"op\":\"pulses\",\"coords\":[0.5,0.0,0.0],\"passes\":[\"lower_3q\"]}"
   with
  | Error msg -> Alcotest.(check bool) "coords+passes rejected" true (contains msg "gate")
  | Ok _ -> Alcotest.fail "coords with passes accepted");
  (* the plan folds into the coalescing key only when present: legacy
     keys are unchanged, and distinct plans never share a key *)
  let key line =
    match Serve.Protocol.parse_line line with
    | { Serve.Protocol.body = Ok b; _ } -> Serve.Protocol.body_key b
    | _ -> Alcotest.failf "unparseable: %s" line
  in
  let base = "{\"v\":1,\"op\":\"compile\",\"bench\":\"alu_2\"}" in
  let with_null = "{\"v\":1,\"op\":\"compile\",\"bench\":\"alu_2\",\"passes\":null}" in
  let planned =
    "{\"v\":1,\"op\":\"compile\",\"bench\":\"alu_2\",\"passes\":[\"lower_3q\",\"template\",\"mirroring\"]}"
  in
  let planned2 =
    "{\"v\":1,\"op\":\"compile\",\"bench\":\"alu_2\",\"passes\":[\"lower_3q\",\"template\",\"peephole\",\"mirroring\"]}"
  in
  Alcotest.(check bool) "legacy = explicit-null key" true (key base = key with_null);
  Alcotest.(check bool) "plan changes the key" true (key base <> key planned);
  Alcotest.(check bool) "distinct plans, distinct keys" true (key planned <> key planned2);
  Alcotest.(check bool) "same plan, same key" true (key planned = key planned);
  (* the mode is parsed once, into a typed value, and folded by its plan
     name: an absent mode is eff, and each mode keys apart *)
  let moded m =
    Printf.sprintf "{\"v\":1,\"op\":\"compile\",\"bench\":\"alu_2\",\"mode\":\"%s\"}" m
  in
  Alcotest.(check bool) "absent mode = eff key" true (key base = key (moded "eff"));
  Alcotest.(check bool) "full keys apart from eff" true (key (moded "full") <> key base);
  Alcotest.(check bool) "nc keys apart from eff" true (key (moded "nc") <> key base);
  Alcotest.(check bool) "full keys apart from nc" true
    (key (moded "full") <> key (moded "nc"));
  (* and the response echoes the mode by the same name *)
  let eng = Serve.Engine.create ~workers:1 ~seed:7L () in
  let resp =
    Serve.Engine.exec_once eng
      (Serve.Protocol.parse_line
         "{\"v\":1,\"id\":1,\"op\":\"compile\",\"bench\":\"alu_1\",\"mode\":\"full\"}")
  in
  Serve.Engine.drain eng;
  let resp = Robust.Json.to_string resp in
  Alcotest.(check bool) ("full compile ok: " ^ resp) true (contains resp "\"ok\":true");
  Alcotest.(check bool) "echoes mode full" true (contains resp "\"mode\":\"full\"")

let test_protocol_version () =
  (* no "v" at all *)
  (match parse_body "{\"op\":\"stats\"}" with
  | Error msg ->
    Alcotest.(check bool) "missing v mentions version" true (contains msg "version")
  | Ok _ -> Alcotest.fail "missing v accepted");
  (* an alien version *)
  (match parse_body "{\"v\":2,\"op\":\"stats\"}" with
  | Error msg ->
    Alcotest.(check bool) "v=2 unsupported" true (contains msg "unsupported")
  | Ok _ -> Alcotest.fail "v=2 accepted");
  (* a non-integer version *)
  (match parse_body "{\"v\":\"1\",\"op\":\"stats\"}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "string v accepted");
  (* the current version parses *)
  match parse_body (Printf.sprintf "{\"v\":%d,\"op\":\"stats\"}" Serve.Protocol.version) with
  | Ok { Serve.Protocol.op = Serve.Protocol.Stats; _ } -> ()
  | _ -> Alcotest.fail "current version rejected"

let test_protocol_frame_cap () =
  (* an oversized line is refused before any JSON work, as a typed
     bad_request naming the limit — and the id is NOT recovered (scanning
     an arbitrarily long line for it would defeat the cap) *)
  let limit = 256 in
  let long = "{\"v\":1,\"id\":1,\"op\":\"stats\",\"pad\":\"" ^ String.make 300 'x' ^ "\"}" in
  (let p = Serve.Protocol.parse_line ~max_bytes:limit long in
   match p.Serve.Protocol.body with
   | Ok _ -> Alcotest.fail "oversized frame accepted"
   | Error msg ->
     Alcotest.(check bool) "names the byte limit" true (contains msg "256-byte");
     Alcotest.(check bool) "says frame limit" true (contains msg "frame limit");
     Alcotest.(check bool) "id not recovered" true (p.Serve.Protocol.id = Robust.Json.Null));
  (* at the limit exactly, the frame is processed normally *)
  let pad = String.make (limit - String.length "{\"v\":1,\"op\":\"stats\",\"pad\":\"\"}") 'y' in
  let exact = "{\"v\":1,\"op\":\"stats\",\"pad\":\"" ^ pad ^ "\"}" in
  Alcotest.(check int) "exact-limit frame length" limit (String.length exact);
  (match (Serve.Protocol.parse_line ~max_bytes:limit exact).Serve.Protocol.body with
  | Ok { Serve.Protocol.op = Serve.Protocol.Stats; _ } -> ()
  | Ok _ -> Alcotest.fail "wrong op"
  | Error e -> Alcotest.failf "exact-limit frame rejected: %s" e);
  (* the default cap is the documented constant *)
  Alcotest.(check int) "default cap" (1 lsl 20) Serve.Protocol.max_line_bytes;
  let over_default = String.make (Serve.Protocol.max_line_bytes + 1) 'z' in
  match (Serve.Protocol.parse_line over_default).Serve.Protocol.body with
  | Error msg ->
    Alcotest.(check bool) "default cap enforced" true (contains msg "frame limit")
  | Ok _ -> Alcotest.fail "default cap not enforced"

let test_response_carries_version () =
  let item = Serve.Protocol.ok_item ~op:"stats" Robust.Json.Null in
  Alcotest.(check (option int)) "ok response v" (Some Serve.Protocol.version)
    (Robust.Json.mem_int "v" item);
  let err = Serve.Protocol.error_item ~kind:"bad_request" ~stage:"t" "m" in
  Alcotest.(check (option int)) "error response v" (Some Serve.Protocol.version)
    (Robust.Json.mem_int "v" err)

(* --------------------------------------------------------------- server *)

(* drive a full Server.run over temp-file channels and hand back the
   response lines *)
let run_server ?(workers = 1) lines =
  let req = Filename.temp_file "reqisc_test" ".in" in
  let resp = Filename.temp_file "reqisc_test" ".out" in
  let oc = open_out req in
  List.iter
    (fun l ->
      output_string oc l;
      output_char oc '\n')
    lines;
  close_out oc;
  let ic = open_in req in
  let out = open_out resp in
  let summary =
    Serve.Server.run
      ~config:{ Serve.Server.default_config with Serve.Server.workers }
      ic out
  in
  close_in ic;
  close_out out;
  let acc = ref [] in
  let ic = open_in resp in
  (try
     while true do
       acc := input_line ic :: !acc
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove req;
  Sys.remove resp;
  match summary with
  | Error e -> Alcotest.failf "server failed to start: %s" e
  | Ok s -> (s, List.rev !acc)

let find_by_id lines id =
  match
    List.find_opt
      (fun l ->
        match Robust.Json.parse l with
        | Ok j -> Robust.Json.mem_int "id" j = Some id
        | Error _ -> false)
      lines
  with
  | Some l -> l
  | None -> Alcotest.failf "no response with id %d" id

let test_server_happy_path () =
  disarm ();
  let summary, lines =
    run_server
      [
        "{\"v\":1,\"id\":1,\"op\":\"stats\"}";
        "{\"v\":1,\"id\":2,\"op\":\"pulses\",\"gate\":\"cnot\"}";
        "{\"v\":1,\"id\":3,\"op\":\"batch\",\"requests\":[{\"op\":\"pulses\",\"gate\":\"cz\"},{\"op\":\"stats\"}]}";
      ]
  in
  Alcotest.(check int) "three responses" 3 (List.length lines);
  Alcotest.(check int) "served" 3 summary.Serve.Server.served;
  Alcotest.(check int) "no errors" 0 summary.Serve.Server.errors;
  List.iter
    (fun l -> Alcotest.(check bool) "ok response" true (contains l "\"ok\":true"))
    lines;
  Alcotest.(check bool) "pulse payload present" true
    (contains (find_by_id lines 2) "\"tau\"");
  (* every response echoes the protocol version *)
  List.iter
    (fun l -> Alcotest.(check bool) "response carries v" true (contains l "\"v\":1"))
    lines

let test_server_version_negotiation () =
  disarm ();
  let summary, lines =
    run_server
      [
        "{\"id\":1,\"op\":\"stats\"}";
        "{\"v\":99,\"id\":2,\"op\":\"stats\"}";
        "{\"v\":1,\"id\":3,\"op\":\"stats\"}";
      ]
  in
  Alcotest.(check int) "all answered" 3 (List.length lines);
  Alcotest.(check int) "two rejections" 2 summary.Serve.Server.errors;
  Alcotest.(check bool) "missing v is bad_request" true
    (contains (find_by_id lines 1) "bad_request");
  Alcotest.(check bool) "alien v is bad_request" true
    (contains (find_by_id lines 2) "bad_request");
  Alcotest.(check bool) "alien v names the number" true
    (contains (find_by_id lines 2) "99");
  Alcotest.(check bool) "current v accepted" true
    (contains (find_by_id lines 3) "\"ok\":true")

let test_server_stats_obs_block () =
  disarm ();
  let _, lines =
    run_server
      [
        "{\"v\":1,\"id\":1,\"op\":\"pulses\",\"gate\":\"cnot\"}";
        "{\"v\":1,\"id\":2,\"op\":\"stats\"}";
      ]
  in
  let l = find_by_id lines 2 in
  (* the self-installed recorder means stats always carries live span
     aggregates: the pulses request just served must appear *)
  Alcotest.(check bool) "stats has obs block" true (contains l "\"obs\"");
  Alcotest.(check bool) "obs has span map" true (contains l "\"spans\"");
  Alcotest.(check bool) "exec span for pulses present" true
    (contains l "serve.exec.pulses");
  match Robust.Json.parse l with
  | Error e -> Alcotest.failf "stats response not JSON: %s" e
  | Ok j -> (
    match Robust.Json.member "result" j with
    | Some r ->
      Alcotest.(check bool) "obs parses as object" true
        (match Robust.Json.member "obs" r with
        | Some (Robust.Json.Obj _) -> true
        | _ -> false)
    | None -> Alcotest.fail "stats result missing")

(* a cache under a non-ASCII directory: its stats render as real JSON
   (the path comes back byte for byte), and the server's stats response
   carries them as an object *)
let test_server_stats_cache_path () =
  disarm ();
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "caf\xc3\xa9-%d" (Unix.getpid ()))
  in
  Unix.mkdir dir 0o700;
  let path = Filename.concat dir "p.cache" in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists path then Sys.remove path;
      Unix.rmdir dir)
  @@ fun () ->
  match Cache.create ~path () with
  | Error e -> Alcotest.failf "cannot create cache: %s" e
  | Ok c -> (
    let path_of j = Robust.Json.mem_str "path" j in
    (match Robust.Json.parse (Robust.Json.to_string (Cache.stats_json c)) with
    | Ok j -> Alcotest.(check (option string)) "stats_json path" (Some path) (path_of j)
    | Error e -> Alcotest.failf "stats_json does not parse: %s" e);
    (* the engine owns the cache from here and closes it on drain *)
    let eng = Serve.Engine.create ~workers:1 ~cache:c ~seed:7L () in
    let resp =
      Serve.Engine.exec_once eng (Serve.Protocol.parse_line "{\"v\":1,\"id\":1,\"op\":\"stats\"}")
    in
    Serve.Engine.drain eng;
    match Robust.Json.parse (Robust.Json.to_string resp) with
    | Error e -> Alcotest.failf "stats response not JSON: %s" e
    | Ok j -> (
      match Option.bind (Robust.Json.member "result" j) (Robust.Json.member "cache") with
      | Some (Robust.Json.Obj _ as cache) ->
        Alcotest.(check (option string)) "stats cache path" (Some path) (path_of cache)
      | _ -> Alcotest.fail "stats cache is not an object"))

let test_server_malformed_request () =
  disarm ();
  let summary, lines =
    run_server
      [
        "this is not json";
        "{\"v\":1,\"id\":7,\"op\":\"nope\"}";
        "{\"v\":1,\"id\":8,\"op\":\"pulses\",\"gate\":\"bogus\"}";
        "{\"v\":1,\"id\":9,\"op\":\"stats\"}";
      ]
  in
  Alcotest.(check int) "every line answered" 4 (List.length lines);
  Alcotest.(check int) "errors counted" 3 summary.Serve.Server.errors;
  List.iter
    (fun id ->
      Alcotest.(check bool)
        (Printf.sprintf "id %d rejected as bad_request" id)
        true
        (contains (find_by_id lines id) "bad_request"))
    [ 7; 8 ];
  (* the server must keep serving after garbage *)
  Alcotest.(check bool) "later request still ok" true
    (contains (find_by_id lines 9) "\"ok\":true")

let test_server_over_budget () =
  disarm ();
  let x, y, z = ea_xyz in
  let req =
    Printf.sprintf
      "{\"v\":1,\"id\":1,\"op\":\"pulses\",\"coords\":[%.17g,%.17g,%.17g],\"budget\":{\"max_seconds\":0}}"
      x y z
  in
  let summary, lines = run_server [ req; "{\"v\":1,\"id\":2,\"op\":\"pulses\",\"gate\":\"cnot\"}" ] in
  Alcotest.(check int) "both answered" 2 (List.length lines);
  let l = find_by_id lines 1 in
  Alcotest.(check bool) "typed budget error" true (contains l "budget_exceeded");
  Alcotest.(check bool) "is an error response" true (contains l "\"ok\":false");
  Alcotest.(check bool) "unbudgeted request unaffected" true
    (contains (find_by_id lines 2) "\"ok\":true");
  Alcotest.(check int) "summary error count" 1 summary.Serve.Server.errors

let test_server_solver_fault () =
  let x, y, z = ea_xyz in
  let coords_req id =
    Printf.sprintf "{\"v\":1,\"id\":%d,\"op\":\"pulses\",\"coords\":[%.17g,%.17g,%.17g]}" id x y z
  in
  with_faults "ea_noconv:4" (fun () ->
      let summary, lines = run_server [ coords_req 1; "{\"v\":1,\"id\":2,\"op\":\"stats\"}" ] in
      (* the injected non-convergence surfaces as a JSON error — the worker
         survives and still answers the next request *)
      let l = find_by_id lines 1 in
      Alcotest.(check bool) "failure is a response" true (contains l "\"ok\":false");
      Alcotest.(check bool) "typed non_convergence" true (contains l "non_convergence");
      Alcotest.(check bool) "server alive after fault" true
        (contains (find_by_id lines 2) "\"ok\":true");
      Alcotest.(check int) "clean drain" 2 summary.Serve.Server.served)

let test_server_shutdown_drains () =
  disarm ();
  let summary, lines =
    run_server ~workers:2
      [
        "{\"v\":1,\"id\":1,\"op\":\"pulses\",\"gate\":\"cnot\"}";
        "{\"v\":1,\"id\":2,\"op\":\"pulses\",\"gate\":\"iswap\"}";
        "{\"v\":1,\"id\":3,\"op\":\"shutdown\"}";
        "{\"v\":1,\"id\":99,\"op\":\"stats\"}";
      ]
  in
  (* everything queued before the shutdown is drained; the line after it
     is never read *)
  Alcotest.(check int) "drained queue" 3 (List.length lines);
  List.iter (fun id -> ignore (find_by_id lines id)) [ 1; 2; 3 ];
  Alcotest.(check bool) "post-shutdown line unread" true
    (List.for_all (fun l -> not (contains l "\"id\":99")) lines);
  Alcotest.(check int) "summary served" 3 summary.Serve.Server.served

(* ----------------------------------------------------------- coalescing *)

(* Engine-level single-flight tests drive {!Serve.Engine} directly: the
   engine is created with one worker and first fed [plug] cold solves, so
   every storm request is submitted (and its waiter attached) while the
   worker is still busy — the flight cannot complete early, making the
   coalescing count deterministic on any scheduler. *)

let storm_line id =
  Printf.sprintf "{\"v\":1,\"id\":%d,\"op\":\"pulses\",\"coords\":[0.6,0.5,0.4]}" id

(* the plugs are compile requests, for two reasons: they never touch the
   pulse solver (so the storm's class computations are exactly the storm's),
   and their cost is immune to the "ea_noconv" fault site — an armed EA
   fault makes a pulses plug fail in microseconds, which would unplug
   the fault-fan-out storm *)
let plug_lines =
  [
    "{\"v\":1,\"op\":\"compile\",\"bench\":\"qaoa_8\",\"mode\":\"eff\"}";
    "{\"v\":1,\"op\":\"compile\",\"bench\":\"alu_2\",\"mode\":\"eff\"}";
  ]

let strip_id = function
  | Robust.Json.Obj ms -> Robust.Json.Obj (List.filter (fun (k, _) -> k <> "id") ms)
  | v -> v

(* [pulses] replies pinned by bytes (id stripped) for the six named
   gates and two coords targets. Engine.exec_once answers them three
   ways: over a cold store (a root search each), on the same engine again
   (the class memo), and on a second engine over the reopened store (a
   replay). All three give the bytes recorded here, which the solver
   produced before the memo fronted the pulse cache. *)
let pulses_reply_digest = "951208659eb8d67ed71ae64adad65eb1"

let pulses_reply_lines =
  List.map
    (fun g -> Printf.sprintf "{\"v\":1,\"id\":1,\"op\":\"pulses\",\"gate\":%S}" g)
    Quantum.Gates.named_2q
  @ List.map
      (fun c -> Printf.sprintf "{\"v\":1,\"id\":1,\"op\":\"pulses\",\"coords\":%s}" c)
      [ "[0.6,0.5,0.4]"; "[0.5,0.3,0.1]" ]

let test_pulses_reply_bytes () =
  disarm ();
  let path = Filename.temp_file "reqisc_serve" ".rqcache" in
  Sys.remove path;
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path) @@ fun () ->
  let engine () =
    match Cache.create ~path () with
    | Error e -> Alcotest.failf "cannot open cache: %s" e
    | Ok cache -> Serve.Engine.create ~workers:1 ~cache ~seed:7L ()
  in
  let replies eng =
    List.map
      (fun line ->
        Robust.Json.to_string (strip_id (Serve.Engine.exec_once eng (Serve.Protocol.parse_line line))))
      pulses_reply_lines
  in
  let count = Robust.Counters.get ~stage:"genashn" in
  let eng = engine () in
  let cold = replies eng in
  let runs0 = count "solve_run" and replays0 = count "cache_hit" in
  let memo = replies eng in
  Alcotest.(check (pair int int)) "the memo answers the second pass" (runs0, replays0)
    (count "solve_run", count "cache_hit");
  Serve.Engine.drain eng;
  let eng = engine () in
  let replay = replies eng in
  Serve.Engine.drain eng;
  Alcotest.(check int) "the reopened store answers without a root search" runs0
    (count "solve_run");
  (* cnot and cz share a class: the memo answers the second of them *)
  Alcotest.(check int) "one store replay per distinct class"
    (replays0 + List.length pulses_reply_lines - 1)
    (count "cache_hit");
  List.iter
    (fun r -> Alcotest.(check bool) ("ok reply: " ^ r) true (contains r "\"ok\":true"))
    cold;
  Alcotest.(check (list string)) "memo bytes" cold memo;
  Alcotest.(check (list string)) "replay bytes" cold replay;
  Alcotest.(check string) "pinned reply bytes" pulses_reply_digest
    (Digest.to_hex (Digest.string (String.concat "\n" cold)))

(* run a K-request storm behind the plugs and hand back the storm
   responses (the plug responses are dropped) *)
let run_storm ?(storm_line = storm_line) ~stormers () =
  let eng = Serve.Engine.create ~workers:1 ~seed:7L () in
  let lock = Mutex.create () in
  let storm_resps = ref [] in
  (* parse everything up front so the submissions themselves are a tight
     loop of queue pushes — the whole storm must be in flight before the
     worker can reach its leader *)
  let plugs = List.map Serve.Protocol.parse_line plug_lines in
  let storms =
    List.init stormers (fun i -> Serve.Protocol.parse_line (storm_line (i + 1)))
  in
  List.iter (fun p -> Serve.Engine.submit eng p ~respond:(fun _ -> ())) plugs;
  List.iter
    (fun p ->
      Serve.Engine.submit eng p
        ~respond:(fun r ->
          Mutex.lock lock;
          storm_resps := r :: !storm_resps;
          Mutex.unlock lock))
    storms;
  Serve.Engine.drain eng;
  !storm_resps

let check_storm_fanout ~stormers resps =
  Alcotest.(check int) "every waiter answered" stormers (List.length resps);
  let ids =
    List.sort compare
      (List.filter_map (fun r -> Robust.Json.mem_int "id" r) resps)
  in
  Alcotest.(check (list int)) "each waiter got its own id"
    (List.init stormers (fun i -> i + 1))
    ids;
  match List.map (fun r -> Robust.Json.to_string (strip_id r)) resps with
  | [] -> Alcotest.fail "no storm responses"
  | first :: rest ->
    List.iter
      (fun s ->
        Alcotest.(check string) "one result fanned out to every waiter" first s)
      rest;
    first

let test_coalesce_storm () =
  disarm ();
  let stormers = 8 in
  let runs0 = class_computations () in
  let hits0 = Robust.Counters.get ~stage:"serve" "coalesce_hit" in
  let resps = run_storm ~stormers () in
  let runs = class_computations () - runs0 in
  Alcotest.(check int) "one class computation for the whole storm" 1 runs;
  Alcotest.(check int) "the other waiters coalesced" (stormers - 1)
    (Robust.Counters.get ~stage:"serve" "coalesce_hit" - hits0);
  let body = check_storm_fanout ~stormers resps in
  Alcotest.(check bool) "shared result is a success" true
    (contains body "\"ok\":true")

let test_coalesce_fault_fanout () =
  (* the leader's solve fails (unlimited injected non-convergence): every
     waiter must get the same typed error, and the engine must still
     drain — a failed flight may not strand its waiters *)
  let stormers = 6 in
  with_faults "ea_noconv" (fun () ->
      let x, y, z = ea_xyz in
      let storm_line id =
        Printf.sprintf
          "{\"v\":1,\"id\":%d,\"op\":\"pulses\",\"coords\":[%.17g,%.17g,%.17g]}" id x y
          z
      in
      let hits0 = Robust.Counters.get ~stage:"serve" "coalesce_hit" in
      let resps = run_storm ~storm_line ~stormers () in
      Alcotest.(check int) "waiters coalesced onto the failing flight"
        (stormers - 1)
        (Robust.Counters.get ~stage:"serve" "coalesce_hit" - hits0);
      let body = check_storm_fanout ~stormers resps in
      Alcotest.(check bool) "shared result is the typed failure" true
        (contains body "\"ok\":false");
      Alcotest.(check bool) "typed non_convergence" true
        (contains body "non_convergence"))

let test_coalesce_differential () =
  (* the same deterministic stream through a coalescing engine and a
     coalescing-disabled engine: responses must be bit-identical keyed by
     id — single-flight shares work, it must never change answers. The
     stream is all pulses/compile (deterministic payloads); stats is
     excluded because its live-counter snapshot is legitimately volatile. *)
  disarm ();
  let lines =
    List.concat_map
      (fun g ->
        List.init 3 (fun i ->
            Printf.sprintf "{\"v\":1,\"id\":\"%s-%d\",\"op\":\"pulses\",\"gate\":\"%s\"}" g i g))
      [ "cnot"; "cz"; "iswap"; "swap" ]
    @ List.init 4 (fun i ->
          Printf.sprintf
            "{\"v\":1,\"id\":\"c-%d\",\"op\":\"pulses\",\"coords\":[0.5,0.3,0.1]}" i)
    @ [ "{\"v\":1,\"id\":\"k-1\",\"op\":\"compile\",\"bench\":\"qaoa_8\",\"mode\":\"eff\"}" ]
  in
  let run coalesce =
    let eng = Serve.Engine.create ~workers:2 ~coalesce ~seed:1L () in
    let lock = Mutex.create () in
    let out = ref [] in
    List.iter
      (fun l ->
        Serve.Engine.submit eng (Serve.Protocol.parse_line l)
          ~respond:(fun r ->
            Mutex.lock lock;
            out :=
              ( Robust.Json.to_string
                  (Option.value ~default:Robust.Json.Null (Robust.Json.member "id" r)),
                Robust.Json.to_string r )
              :: !out;
            Mutex.unlock lock))
      lines;
    Serve.Engine.drain eng;
    List.sort compare !out
  in
  let on = run true and off = run false in
  Alcotest.(check int) "same cardinality" (List.length off) (List.length on);
  List.iter2
    (fun (k_off, r_off) (k_on, r_on) ->
      Alcotest.(check string) "same id set" k_off k_on;
      Alcotest.(check string)
        (Printf.sprintf "bit-identical response for id %s" k_off)
        r_off r_on)
    off on

(* ------------------------------------------- deadlines and supervision *)

let test_deadline_expired_skips_solver () =
  disarm ();
  (* [deadline_ms = 0] is expired on arrival: the engine must answer the
     typed error at dequeue and never invoke the solver *)
  let runs0 = class_computations () in
  let exceeded0 = Robust.Counters.get ~stage:"serve" "deadline_exceeded" in
  let summary, lines =
    run_server
      [
        "{\"v\":1,\"id\":1,\"op\":\"pulses\",\"coords\":[0.6,0.5,0.4],\"deadline_ms\":0}";
        "{\"v\":1,\"id\":2,\"op\":\"stats\"}";
      ]
  in
  Alcotest.(check int) "both answered" 2 (List.length lines);
  let l = find_by_id lines 1 in
  Alcotest.(check bool) "is an error response" true (contains l "\"ok\":false");
  Alcotest.(check bool) "typed deadline_exceeded" true (contains l "deadline_exceeded");
  Alcotest.(check bool) "stage named" true (contains l "serve.deadline");
  Alcotest.(check int) "solver never ran" 0
    (class_computations () - runs0);
  Alcotest.(check int) "drop counted" 1
    (Robust.Counters.get ~stage:"serve" "deadline_exceeded" - exceeded0);
  Alcotest.(check bool) "later request unaffected" true
    (contains (find_by_id lines 2) "\"ok\":true");
  Alcotest.(check int) "summary error count" 1 summary.Serve.Server.errors

let test_deadline_generous_and_invalid () =
  disarm ();
  (* a deadline with time to spare must not change the answer; a negative
     or non-numeric one is a parse error, not a silent default *)
  let _, lines =
    run_server
      [
        "{\"v\":1,\"id\":1,\"op\":\"pulses\",\"gate\":\"cnot\",\"deadline_ms\":60000}";
        "{\"v\":1,\"id\":2,\"op\":\"pulses\",\"gate\":\"cnot\",\"deadline_ms\":-5}";
        "{\"v\":1,\"id\":3,\"op\":\"pulses\",\"gate\":\"cnot\",\"deadline_ms\":\"soon\"}";
      ]
  in
  Alcotest.(check bool) "generous deadline answers ok" true
    (contains (find_by_id lines 1) "\"ok\":true");
  List.iter
    (fun id ->
      let l = find_by_id lines id in
      Alcotest.(check bool) "rejected as bad_request" true (contains l "bad_request");
      Alcotest.(check bool) "names deadline_ms" true (contains l "deadline_ms"))
    [ 2; 3 ];
  (* the engine's synchronous path enforces deadlines too *)
  let eng = Serve.Engine.create ~workers:1 ~seed:7L () in
  let resp =
    Serve.Engine.exec_once eng
      (Serve.Protocol.parse_line "{\"v\":1,\"id\":9,\"op\":\"stats\",\"deadline_ms\":0}")
  in
  Alcotest.(check bool) "exec_once honors deadline" true
    (contains (Robust.Json.to_string resp) "deadline_exceeded");
  Serve.Engine.drain eng

let test_worker_supervision () =
  (* two injected worker crashes: each in-flight request answers a typed
     internal_error, the supervisor restarts the worker (counted), and
     the restarted worker keeps serving through the drain *)
  with_faults "worker_crash:2" (fun () ->
      let restarts0 = Robust.Counters.get ~stage:"serve" "worker_restart" in
      (* distinct bodies: identical ones would coalesce into one flight
         and a single crash would (correctly) fan out to all of them *)
      let summary, lines =
        run_server
          [
            "{\"v\":1,\"id\":1,\"op\":\"pulses\",\"gate\":\"cnot\"}";
            "{\"v\":1,\"id\":2,\"op\":\"pulses\",\"gate\":\"cz\"}";
            "{\"v\":1,\"id\":3,\"op\":\"stats\"}";
          ]
      in
      Alcotest.(check int) "every request answered" 3 (List.length lines);
      List.iter
        (fun id ->
          let l = find_by_id lines id in
          Alcotest.(check bool)
            (Printf.sprintf "crash %d surfaced as internal_error" id)
            true
            (contains l "internal_error" && contains l "worker crashed"))
        [ 1; 2 ];
      Alcotest.(check bool) "restarted worker serves" true
        (contains (find_by_id lines 3) "\"ok\":true");
      Alcotest.(check int) "restarts counted" 2
        (Robust.Counters.get ~stage:"serve" "worker_restart" - restarts0);
      Alcotest.(check int) "clean drain" 3 summary.Serve.Server.served)

let test_coalesce_drain_waiters () =
  disarm ();
  (* K duplicate requests are queued (and coalesced onto one flight)
     behind plugs when the shutdown arrives: the drain must execute the
     leader once and fan its response to every waiter — a draining server
     may not strand coalesced waiters *)
  let stormers = 6 in
  let runs0 = class_computations () in
  let hits0 = Robust.Counters.get ~stage:"serve" "coalesce_hit" in
  let lines =
    plug_lines
    @ List.init stormers (fun i -> storm_line (i + 1))
    @ [ "{\"v\":1,\"id\":50,\"op\":\"shutdown\"}" ]
  in
  let summary, resps = run_server lines in
  Alcotest.(check int) "plugs + waiters + shutdown all answered"
    (List.length plug_lines + stormers + 1)
    (List.length resps);
  Alcotest.(check int) "one class computation for the whole storm" 1
    (class_computations () - runs0);
  Alcotest.(check int) "waiters coalesced" (stormers - 1)
    (Robust.Counters.get ~stage:"serve" "coalesce_hit" - hits0);
  let bodies =
    List.init stormers (fun i ->
        match Robust.Json.parse (find_by_id resps (i + 1)) with
        | Ok j -> Robust.Json.to_string (strip_id j)
        | Error e -> Alcotest.failf "waiter %d response not JSON: %s" (i + 1) e)
  in
  (match bodies with
  | first :: rest ->
    Alcotest.(check bool) "leader's result is a success" true
      (contains first "\"ok\":true");
    List.iter
      (fun b -> Alcotest.(check string) "identical fan-out under drain" first b)
      rest
  | [] -> Alcotest.fail "no waiter responses");
  Alcotest.(check int) "summary served everything" (List.length resps)
    summary.Serve.Server.served

let () =
  disarm ();
  Alcotest.run "serve"
    [
      ( "json",
        [
          Alcotest.test_case "round trip" `Quick test_json_roundtrip;
          Alcotest.test_case "unicode" `Quick test_json_unicode;
          Alcotest.test_case "malformed" `Quick test_json_malformed;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
          Alcotest.test_case "property round trip" `Quick test_json_property_roundtrip;
          Alcotest.test_case "rejection corpus" `Quick test_json_rejection_corpus;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "parse ok" `Quick test_protocol_parse_ok;
          Alcotest.test_case "parse errors" `Quick test_protocol_parse_errors;
          Alcotest.test_case "typed fields" `Quick test_protocol_typed_fields;
          Alcotest.test_case "custom pass plans" `Quick test_protocol_passes;
          Alcotest.test_case "version negotiation" `Quick test_protocol_version;
          Alcotest.test_case "frame cap" `Quick test_protocol_frame_cap;
          Alcotest.test_case "response version" `Quick test_response_carries_version;
        ] );
      ( "server",
        [
          Alcotest.test_case "happy path" `Quick test_server_happy_path;
          Alcotest.test_case "version negotiation" `Quick test_server_version_negotiation;
          Alcotest.test_case "stats obs block" `Quick test_server_stats_obs_block;
          Alcotest.test_case "stats cache path" `Quick test_server_stats_cache_path;
          Alcotest.test_case "malformed request" `Quick test_server_malformed_request;
          Alcotest.test_case "over budget" `Quick test_server_over_budget;
          Alcotest.test_case "solver fault" `Quick test_server_solver_fault;
          Alcotest.test_case "shutdown drains" `Quick test_server_shutdown_drains;
          Alcotest.test_case "pulses reply bytes" `Quick test_pulses_reply_bytes;
        ] );
      ( "coalescing",
        [
          Alcotest.test_case "duplicate storm" `Quick test_coalesce_storm;
          Alcotest.test_case "fault fan-out" `Quick test_coalesce_fault_fanout;
          Alcotest.test_case "differential vs uncoalesced" `Quick
            test_coalesce_differential;
          Alcotest.test_case "drain fans out to waiters" `Quick
            test_coalesce_drain_waiters;
        ] );
      ( "resilience",
        [
          Alcotest.test_case "expired deadline skips solver" `Quick
            test_deadline_expired_skips_solver;
          Alcotest.test_case "deadline bounds" `Quick
            test_deadline_generous_and_invalid;
          Alcotest.test_case "worker supervision" `Quick test_worker_supervision;
        ] );
    ]
