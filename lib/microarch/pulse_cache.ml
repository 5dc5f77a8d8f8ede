type entry = {
  solved : bool;
  scheme : int;
  tau : float;
  x1 : float;
  x2 : float;
  delta : float;
  residual : float;
  retries : int;
  note : string;
}

(* Versioned binary record: [u8 version=1][u8 solved][u8 scheme]
   [5 x f64le bits: tau x1 x2 delta residual][u16le retries]
   [u16le note_len][note]. Float bits (not decimal renderings) keep warm
   replays bit-identical to the original solve. *)

let version = 1

let put_f64 b v = Buffer.add_int64_le b (Int64.bits_of_float v)

let put_u16 b v =
  Buffer.add_char b (Char.chr (v land 0xff));
  Buffer.add_char b (Char.chr ((v lsr 8) land 0xff))

let encode e =
  let b = Buffer.create (3 + 40 + 4 + String.length e.note) in
  Buffer.add_char b (Char.chr version);
  Buffer.add_char b (if e.solved then '\001' else '\000');
  Buffer.add_char b (Char.chr (e.scheme land 0xff));
  put_f64 b e.tau;
  put_f64 b e.x1;
  put_f64 b e.x2;
  put_f64 b e.delta;
  put_f64 b e.residual;
  put_u16 b (min e.retries 0xffff);
  let note = if String.length e.note > 0xffff then String.sub e.note 0 0xffff else e.note in
  put_u16 b (String.length note);
  Buffer.add_string b note;
  Buffer.contents b

let get_f64 s off = Int64.float_of_bits (String.get_int64_le s off)
let get_u16 s off = Char.code s.[off] lor (Char.code s.[off + 1] lsl 8)

let decode s =
  let fixed = 3 + 40 + 4 in
  if String.length s < fixed then None
  else if Char.code s.[0] <> version then None
  else begin
    let note_len = get_u16 s (fixed - 2) in
    if String.length s <> fixed + note_len then None
    else
      Some
        {
          solved = s.[1] = '\001';
          scheme = Char.code s.[2];
          tau = get_f64 s 3;
          x1 = get_f64 s 11;
          x2 = get_f64 s 19;
          delta = get_f64 s 27;
          residual = get_f64 s 35;
          retries = get_u16 s 43;
          note = String.sub s fixed note_len;
        }
  end

(* The active cache and its install generation, swapped as one value.
   Installed before worker domains spawn and read-only hot-path access
   afterwards; Atomic keeps the publication well-defined. Every install,
   uninstall and [with_cache] entry or restore bumps the generation, so
   a memo keyed on it never answers across two installations. *)
type slot = { generation : int; cache : Cache.t option }

let active = Atomic.make { generation = 0; cache = None }

let set cache = Atomic.set active { generation = (Atomic.get active).generation + 1; cache }
let install c = set (Some c)
let uninstall () = set None
let installed () = (Atomic.get active).cache
let generation () = (Atomic.get active).generation

let with_cache c f =
  let prev = installed () in
  set (Some c);
  Fun.protect ~finally:(fun () -> set prev) f

let lookup key =
  match installed () with
  | None -> None
  | Some c -> (
    match Cache.find c key with
    | None -> None
    | Some bytes -> decode bytes (* a corrupt/foreign value reads as a miss *))

let store key e =
  match installed () with
  | None -> ()
  | Some c -> Cache.add c key (encode e)
