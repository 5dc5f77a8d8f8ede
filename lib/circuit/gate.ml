open Numerics

type t = { label : string; qubits : int array; mat : Mat.t; kak : Weyl.Kak.t option }

let build label qubits mat kak =
  let k = Array.length qubits in
  if Mat.rows mat <> 1 lsl k || Mat.cols mat <> 1 lsl k then
    invalid_arg (Printf.sprintf "Gate.make %s: matrix size mismatch" label);
  let sorted = Array.copy qubits in
  Array.sort compare sorted;
  for i = 0 to k - 2 do
    if sorted.(i) = sorted.(i + 1) then invalid_arg "Gate.make: duplicate wires"
  done;
  { label; qubits; mat; kak }

let make label qubits mat = build label qubits mat None

let make_kak label qubits mat kak =
  if Array.length qubits <> 2 then invalid_arg "Gate.make_kak: need a 2Q gate";
  build label qubits mat (Some kak)

let kak g = match g.kak with Some d -> Ok d | None -> Weyl.Kak.decompose_r g.mat

let arity g = Array.length g.qubits
let is_2q g = arity g = 2

open Quantum

let x q = make "x" [| q |] Gates.x
let y q = make "y" [| q |] Gates.y
let z q = make "z" [| q |] Gates.z
let h q = make "h" [| q |] Gates.h
let s q = make "s" [| q |] Gates.s
let sdg q = make "sdg" [| q |] Gates.sdg
let t q = make "t" [| q |] Gates.t
let tdg q = make "tdg" [| q |] Gates.tdg
let rx q th = make (Printf.sprintf "rx(%.4f)" th) [| q |] (Gates.rx th)
let ry q th = make (Printf.sprintf "ry(%.4f)" th) [| q |] (Gates.ry th)
let rz q th = make (Printf.sprintf "rz(%.4f)" th) [| q |] (Gates.rz th)

let u3 q th ph lam =
  make (Printf.sprintf "u3(%.4f,%.4f,%.4f)" th ph lam) [| q |] (Gates.u3 th ph lam)

let one_q q m = make "u" [| q |] m

(* one KAK per named entangler, decomposed once at initialisation from
   the very matrix every such gate holds *)
let named label m =
  let d = Weyl.Kak.decompose m in
  fun a b -> make_kak label [| a; b |] m d

let cx = named "cx" Gates.cnot
let cz = named "cz" Gates.cz
let swap = named "swap" Gates.swap
let iswap = named "iswap" Gates.iswap
let cphase a b th = make (Printf.sprintf "cp(%.4f)" th) [| a; b |] (Gates.cphase th)
let rzz a b th = make (Printf.sprintf "rzz(%.4f)" th) [| a; b |] (Gates.rzz th)

let can a b cx cy cz =
  make (Printf.sprintf "can(%.4f,%.4f,%.4f)" cx cy cz) [| a; b |] (Gates.can cx cy cz)

let su4 a b m = make "su4" [| a; b |] m
let ccx a b c = make "ccx" [| a; b; c |] Gates.ccx
let cswap a b c = make "cswap" [| a; b; c |] Gates.cswap

let ccz_mat =
  Mat.init 8 8 (fun i j ->
      if i <> j then Cx.zero else if i = 7 then Cx.of_float (-1.0) else Cx.one)

let ccz a b c = make "ccz" [| a; b; c |] ccz_mat

let peres_mat = Mat.mul (Gates.embed ~n:3 ~qubits:[ 0; 1 ] Gates.cnot) Gates.ccx
let peres a b c = make "peres" [| a; b; c |] peres_mat
let remap f g = build g.label (Array.map f g.qubits) g.mat g.kak
let dagger g = make (g.label ^ "†") g.qubits (Mat.dagger g.mat)

let pp ppf g =
  Format.fprintf ppf "%s[%s]" g.label
    (String.concat "," (Array.to_list (Array.map string_of_int g.qubits)))

let to_string g = Format.asprintf "%a" pp g
