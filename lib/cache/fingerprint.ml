open Numerics

type t = Buffer.t

let create tag =
  let b = Buffer.create 128 in
  Buffer.add_char b '#';
  Buffer.add_string b (string_of_int (String.length tag));
  Buffer.add_char b ':';
  Buffer.add_string b tag;
  b

let int b v =
  Buffer.add_string b "|i";
  Buffer.add_string b (string_of_int v);
  b

let str b s =
  Buffer.add_string b "|s";
  Buffer.add_string b (string_of_int (String.length s));
  Buffer.add_char b ':';
  Buffer.add_string b s;
  b

(* Quantized float: the Int64 of round (v / quantum). The values being
   fingerprinted here are O(1) (Weyl coordinates, normalized coupling
   coefficients, matrix entries), far from Int64 overflow at any sane
   quantum; non-finite values get symbolic spellings so a poisoned input
   can never alias a real one. *)
let quantize quantum v =
  if Float.is_nan v then "nan"
  else if v = Float.infinity then "+inf"
  else if v = Float.neg_infinity then "-inf"
  else Int64.to_string (Int64.of_float (Float.round (v /. quantum)))

let float ?(quantum = 1e-9) b v =
  Buffer.add_string b "|f";
  Buffer.add_string b (quantize quantum v);
  b

let floats ?quantum b vs =
  Array.iter (fun v -> ignore (float ?quantum b v)) vs;
  b

(* exact: the 8 little-endian bytes of the IEEE bits after the tag, a
   fixed width, so the field stays self-delimiting *)
let bits b v =
  Buffer.add_string b "|x";
  Buffer.add_int64_le b (Int64.bits_of_float v);
  b

let mat_bits b m =
  Buffer.add_string b "|m";
  Buffer.add_string b (string_of_int (Mat.rows m));
  Buffer.add_char b 'x';
  Buffer.add_string b (string_of_int (Mat.cols m));
  Buffer.add_char b ':';
  (* rows·cols·2 fields of the width [bits] writes, untagged *)
  Array.iter (fun v -> Buffer.add_int64_le b (Int64.bits_of_float v)) (Mat.re_plane m);
  Array.iter (fun v -> Buffer.add_int64_le b (Int64.bits_of_float v)) (Mat.im_plane m);
  b

let unitary ?(quantum = 1e-3) b u =
  let n = Mat.rows u and m = Mat.cols u in
  (* normalize by the phase of the first large entry, as the template
     library always did, so globally-dephased copies share a key *)
  let phase = ref Cx.one in
  (try
     for i = 0 to n - 1 do
       for j = 0 to m - 1 do
         let v = Mat.get u i j in
         if Cx.norm v > 0.2 then begin
           phase := Cx.scale (1.0 /. Cx.norm v) v;
           raise Exit
         end
       done
     done
   with Exit -> ());
  Buffer.add_string b "|u";
  Buffer.add_string b (string_of_int n);
  Buffer.add_char b 'x';
  Buffer.add_string b (string_of_int m);
  for i = 0 to n - 1 do
    for j = 0 to m - 1 do
      let v = Cx.( /: ) (Mat.get u i j) !phase in
      Buffer.add_char b ',';
      Buffer.add_string b (quantize quantum (Cx.re v));
      Buffer.add_char b ';';
      Buffer.add_string b (quantize quantum (Cx.im v))
    done
  done;
  b

let key = Buffer.contents
