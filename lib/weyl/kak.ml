open Numerics

type t = {
  a1 : Mat.t;
  a2 : Mat.t;
  coords : Coords.t;
  b1 : Mat.t;
  b2 : Mat.t;
}

let canonical (c : Coords.t) = Quantum.Gates.can c.x c.y c.z

let pi2 = Float.pi /. 2.0
let pi4 = Float.pi /. 4.0

(* --------------------------------------------------------------------- *)
(* Canonicalization state: invariant  u = l * Can v * r  throughout.     *)

type state = { v : float array; mutable l : Mat.t; mutable r : Mat.t }

let pauli_pair = function
  | 0 -> Quantum.Pauli.xx
  | 1 -> Quantum.Pauli.yy
  | 2 -> Quantum.Pauli.zz
  | _ -> assert false

(* v_j <- v_j + k*pi/2, with correction  r <- exp(i k pi/2 PP) r. *)
let shift st j k =
  if k <> 0 then begin
    let theta = float_of_int k *. pi2 in
    let corr =
      Mat.add
        (Mat.rsmul (cos theta) (Mat.identity 4))
        (Mat.smul (Cx.mk 0.0 (sin theta)) (pauli_pair j))
    in
    st.v.(j) <- st.v.(j) +. theta;
    st.r <- Mat.mul corr st.r
  end

(* Negate the two coordinates other than axis [p] by conjugating with the
   Pauli [p] on qubit 0:  C v = (P x I) C v_f (P x I). *)
let flip st p =
  let pm = Quantum.Pauli.matrix_1q p in
  let corr = Mat.kron pm (Mat.identity 2) in
  (match p with
  | Quantum.Pauli.X ->
    st.v.(1) <- -.st.v.(1);
    st.v.(2) <- -.st.v.(2)
  | Quantum.Pauli.Y ->
    st.v.(0) <- -.st.v.(0);
    st.v.(2) <- -.st.v.(2)
  | Quantum.Pauli.Z ->
    st.v.(0) <- -.st.v.(0);
    st.v.(1) <- -.st.v.(1)
  | Quantum.Pauli.I -> invalid_arg "Kak.flip: identity");
  st.l <- Mat.mul st.l corr;
  st.r <- Mat.mul corr st.r

(* Exchange two coordinates via a local Clifford conjugation. *)
let swap_coords st i j =
  let open Quantum.Gates in
  let apply w =
    (* C v = (w ⊗ w)† C v_swapped (w ⊗ w) *)
    let ww = Mat.kron w w in
    st.l <- Mat.mul st.l (Mat.dagger ww);
    st.r <- Mat.mul ww st.r;
    let tmp = st.v.(i) in
    st.v.(i) <- st.v.(j);
    st.v.(j) <- tmp
  in
  match (min i j, max i j) with
  | 0, 1 -> apply s (* S: XX<->YY *)
  | 1, 2 -> apply (rx pi2) (* Rx(pi/2): YY<->ZZ *)
  | 0, 2 -> apply h (* H: XX<->ZZ *)
  | _ -> invalid_arg "Kak.swap_coords"

let canonicalize st =
  (* 1. shift every coordinate into [-pi/4, pi/4] *)
  (* the tiny epsilon keeps an exact +pi/4 in place instead of bouncing it
     to -pi/4 and back through a flip *)
  for j = 0 to 2 do
    let k = -.Float.round ((st.v.(j) -. 1e-12) /. pi2) in
    shift st j (int_of_float k)
  done;
  (* 2. sort by descending absolute value *)
  let byabs j = Float.abs st.v.(j) in
  if byabs 0 < byabs 1 then swap_coords st 0 1;
  if byabs 1 < byabs 2 then swap_coords st 1 2;
  if byabs 0 < byabs 1 then swap_coords st 0 1;
  (* 3. make the two leading coordinates non-negative *)
  if st.v.(0) < 0.0 && st.v.(1) < 0.0 then flip st Quantum.Pauli.Z
  else if st.v.(0) < 0.0 then flip st Quantum.Pauli.Y
  else if st.v.(1) < 0.0 then flip st Quantum.Pauli.X;
  (* 4. boundary rule: on the x = pi/4 face, z must be non-negative *)
  if Float.abs (st.v.(0) -. pi4) < 1e-9 && st.v.(2) < 0.0 then begin
    shift st 0 (-1);
    flip st Quantum.Pauli.Y
  end

(* --------------------------------------------------------------------- *)
(* Raw decomposition in the magic basis.                                 *)

let global_phase_split u =
  (* u = e^{i a} u_su with det u_su = 1 *)
  let usu = Mat.fix_det_su u in
  (* ratio at the largest entry of u *)
  let bi = ref 0 and bj = ref 0 and best = ref 0.0 in
  for i = 0 to Mat.rows u - 1 do
    for j = 0 to Mat.cols u - 1 do
      let v = Cx.norm (Mat.get u i j) in
      if v > !best then begin
        best := v;
        bi := i;
        bj := j
      end
    done
  done;
  let phase = Cx.( /: ) (Mat.get u !bi !bj) (Mat.get usu !bi !bj) in
  (phase, usu)

(* the decomposition proper, for a 4x4 unitary the caller has checked;
   counted as ("weyl", "decompose") so every decomposition that really
   runs shows in [Robust.Counters] *)
let decompose_core u =
  Robust.Counters.incr ~stage:"weyl" "decompose";
  let phase, usu = global_phase_split u in
  let u' = Magic.to_magic usu in
  let m2 = Mat.mul (Mat.transpose u') u' in
  let re = Mat.init 4 4 (fun i j -> Cx.of_float (Cx.re (Mat.get m2 i j))) in
  let im = Mat.init 4 4 (fun i j -> Cx.of_float (Cx.im (Mat.get m2 i j))) in
  let p = Eig.simultaneous_real re im in
  (* force det p = +1 so locals are tensor products *)
  let p =
    if Cx.re (Mat.det p) < 0.0 then
      Mat.init 4 4 (fun i j -> if j = 0 then Cx.neg (Mat.get p i j) else Mat.get p i j)
    else p
  in
  let d = Mat.mul3 (Mat.transpose p) m2 p in
  let delta = Array.init 4 (fun k -> Cx.arg (Mat.get d k k) /. 2.0) in
  (* fix the branch so that sum delta = 0 (mod 2pi): det O1 must be +1 *)
  let sum = Array.fold_left ( +. ) 0.0 delta in
  if (int_of_float (Float.round (sum /. Float.pi)) mod 2 + 2) mod 2 = 1 then
    delta.(0) <- delta.(0) +. Float.pi;
  let sum = Array.fold_left ( +. ) 0.0 delta in
  let dbar = sum /. 4.0 in
  let delta' = Array.map (fun dk -> dk -. dbar) delta in
  (* raw coordinates from the traceless spectrum *)
  let x = (delta'.(2) +. delta'.(3)) /. 2.0 in
  let y = (delta'.(0) +. delta'.(2)) /. 2.0 in
  let z = (delta'.(1) +. delta'.(2)) /. 2.0 in
  let delta_mat =
    Mat.init 4 4 (fun i j -> if i = j then Cx.expi delta.(i) else Cx.zero)
  in
  let o1 = Mat.mul3 u' p (Mat.dagger delta_mat) in
  let k1 = Magic.from_magic o1 in
  let k2 = Magic.from_magic (Mat.transpose p) in
  let st =
    {
      v = [| x; y; z |];
      l = Mat.smul (Cx.( *: ) phase (Cx.expi dbar)) k1;
      r = k2;
    }
  in
  canonicalize st;
  let coords = Coords.make st.v.(0) st.v.(1) st.v.(2) in
  match (Quantum.Local.factor ~tol:1e-6 st.l, Quantum.Local.factor ~tol:1e-6 st.r) with
  | Some (a1, a2), Some (b1, b2) -> { a1; a2; coords; b1; b2 }
  | _ -> failwith "Kak.decompose: locals failed to factor (numerical breakdown)"

let reconstruct { a1; a2; coords; b1; b2 } =
  Mat.mul3 (Mat.kron a1 a2) (canonical coords) (Mat.kron b1 b2)

let decompose u =
  if Mat.rows u <> 4 || Mat.cols u <> 4 then invalid_arg "Kak.decompose: need 4x4";
  if not (Mat.is_unitary ~tol:1e-7 u) then failwith "Kak.decompose: input not unitary";
  decompose_core u

let coords_of u = (decompose u).coords

let decompose_r u =
  if Mat.rows u <> 4 || Mat.cols u <> 4 then
    Error (Robust.Err.Ill_conditioned { stage = "kak"; detail = "need a 4x4 matrix" })
  else if Mat.has_nan u then
    Error (Robust.Err.Nan_detected { stage = "kak"; site = "input" })
  else if not (Mat.is_unitary ~tol:1e-7 u) then
    Error (Robust.Err.Ill_conditioned { stage = "kak"; detail = "input not unitary" })
  else
    match decompose_core u with
    | d -> Ok d
    | exception Failure msg ->
      Error (Robust.Err.Ill_conditioned { stage = "kak"; detail = msg })
    | exception Invalid_argument msg ->
      Error (Robust.Err.Ill_conditioned { stage = "kak"; detail = msg })

let coords_of_r u = Result.map (fun d -> d.coords) (decompose_r u)

let locally_equivalent ?(tol = 1e-7) u v =
  Coords.dist (coords_of u) (coords_of v) <= tol
