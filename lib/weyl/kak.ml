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
(* Constants.                                                             *)

(* The magic (Bell) basis M; its columns are Φ+ = (|00>+|11>)/√2,
   iΨ+ = i(|01>+|10>)/√2, Ψ- = (|01>-|10>)/√2 and iΦ- = i(|00>-|11>)/√2.
   Conjugating by M maps SU(2)⊗SU(2) onto SO(4) and diagonalizes every
   canonical gate. *)
let magic =
  let r = 1.0 /. sqrt 2.0 in
  let z = Cx.zero in
  let c x = Cx.of_float (x *. r) in
  let ci x = Cx.mk 0.0 (x *. r) in
  Mat.of_arrays
    [|
      [| c 1.0; z; z; ci 1.0 |];
      [| z; ci 1.0; c 1.0; z |];
      [| z; ci 1.0; c (-1.0); z |];
      [| c 1.0; z; z; ci (-1.0) |];
    |]

let magic_dag = Mat.dagger magic
let id4 = Mat.identity 4
let pauli_pair = [| Quantum.Pauli.xx; Quantum.Pauli.yy; Quantum.Pauli.zz |]

(* P ⊗ I, the correction of a flip by the Pauli P on qubit 0 *)
let flip_corr p = Mat.kron (Quantum.Pauli.matrix_1q p) (Mat.identity 2)
let flip_x = flip_corr Quantum.Pauli.X
let flip_y = flip_corr Quantum.Pauli.Y
let flip_z = flip_corr Quantum.Pauli.Z

(* (w ⊗ w, (w ⊗ w)†), the corrections of a coordinate exchange by w *)
let swap_corr w =
  let ww = Mat.kron w w in
  (ww, Mat.dagger ww)

let swap_xy = swap_corr Quantum.Gates.s (* S: XX<->YY *)
let swap_yz = swap_corr (Quantum.Gates.rx pi2) (* Rx(pi/2): YY<->ZZ *)
let swap_xz = swap_corr Quantum.Gates.h (* H: XX<->ZZ *)

(* --------------------------------------------------------------------- *)
(* Workspace: every intermediate of one decomposition, one per domain.    *)

type ws = {
  busy : bool Atomic.t;  (** a decomposition is running on it *)
  lu : Mat.t;  (** determinant elimination *)
  usu : Mat.t;  (** the input scaled into SU(4) *)
  um : Mat.t;  (** usu in the magic basis *)
  m2 : Mat.t;  (** umᵀ um *)
  re : Mat.t;  (** real part of m2, as a real matrix *)
  im : Mat.t;  (** imaginary part of m2, as a real matrix *)
  joint : Eig.joint;
  pt : Mat.t;  (** pᵀ, for p the joint eigenvectors *)
  dm : Mat.t;  (** pᵀ m2 p, then diag e^{i delta}, then the left factor *)
  ddag : Mat.t;  (** diag e^{i delta}† *)
  o1 : Mat.t;
  prod : Mat.t;  (** inner product of each triple product *)
  corr : Mat.t;  (** a shift's correction *)
  delta : float array;
  v : float array;  (** the coordinates being canonicalized *)
  mutable l : Mat.t;
  mutable r : Mat.t;
  mutable spare : Mat.t;
}

let make_ws () =
  let mat () = Mat.create 4 4 in
  {
    busy = Atomic.make false;
    lu = mat ();
    usu = mat ();
    um = mat ();
    m2 = mat ();
    re = mat ();
    im = mat ();
    joint = Eig.joint_ws 4;
    pt = mat ();
    dm = mat ();
    ddag = mat ();
    o1 = mat ();
    prod = mat ();
    corr = mat ();
    delta = Array.make 4 0.0;
    v = Array.make 3 0.0;
    l = mat ();
    r = mat ();
    spare = mat ();
  }

let key = Domain.DLS.new_key make_ws

(* [f] on the calling domain's workspace; a second systhread of the domain
   that enters while it is in use gets a fresh one, since a thread switch
   inside [f] would otherwise let the two overwrite each other *)
let with_ws f u =
  let ws = Domain.DLS.get key in
  if Atomic.compare_and_set ws.busy false true then (
    match f ws u with
    | d ->
      Atomic.set ws.busy false;
      d
    | exception e ->
      Atomic.set ws.busy false;
      raise e)
  else f (make_ws ()) u

(* --------------------------------------------------------------------- *)
(* Canonicalization: invariant  u = l * Can v * r  throughout.            *)

(* l <- l m *)
let mul_l ws m =
  Mat.mul_into ~dst:ws.spare ws.l m;
  let t = ws.l in
  ws.l <- ws.spare;
  ws.spare <- t

(* r <- m r *)
let mul_r ws m =
  Mat.mul_into ~dst:ws.spare m ws.r;
  let t = ws.r in
  ws.r <- ws.spare;
  ws.spare <- t

(* v_j <- v_j + k*pi/2, with correction  r <- exp(i k pi/2 PP) r. *)
let shift ws j k =
  if k <> 0 then begin
    let theta = float_of_int k *. pi2 in
    Mat.scale_into ~dst:ws.corr (cos theta) id4;
    Mat.smul_into ~dst:ws.prod (Cx.mk 0.0 (sin theta)) pauli_pair.(j);
    Mat.add_into ~dst:ws.corr ws.corr ws.prod;
    ws.v.(j) <- ws.v.(j) +. theta;
    mul_r ws ws.corr
  end

(* Negate the two coordinates other than axis [p] by conjugating with the
   Pauli [p] on qubit 0:  C v = (P x I) C v_f (P x I). *)
let flip ws p =
  let v = ws.v in
  let corr =
    match p with
    | Quantum.Pauli.X ->
      v.(1) <- -.v.(1);
      v.(2) <- -.v.(2);
      flip_x
    | Quantum.Pauli.Y ->
      v.(0) <- -.v.(0);
      v.(2) <- -.v.(2);
      flip_y
    | Quantum.Pauli.Z ->
      v.(0) <- -.v.(0);
      v.(1) <- -.v.(1);
      flip_z
    | Quantum.Pauli.I -> invalid_arg "Kak.flip: identity"
  in
  mul_l ws corr;
  mul_r ws corr

(* Exchange two coordinates via a local Clifford conjugation:
   C v = (w ⊗ w)† C v_swapped (w ⊗ w). *)
let swap_coords ws i j =
  let ww, ww_dag =
    match (min i j, max i j) with
    | 0, 1 -> swap_xy
    | 1, 2 -> swap_yz
    | 0, 2 -> swap_xz
    | _ -> invalid_arg "Kak.swap_coords"
  in
  mul_l ws ww_dag;
  mul_r ws ww;
  let tmp = ws.v.(i) in
  ws.v.(i) <- ws.v.(j);
  ws.v.(j) <- tmp

let canonicalize ws =
  let v = ws.v in
  (* 1. shift every coordinate into [-pi/4, pi/4] *)
  (* the tiny epsilon keeps an exact +pi/4 in place instead of bouncing it
     to -pi/4 and back through a flip *)
  for j = 0 to 2 do
    let k = -.Float.round ((v.(j) -. 1e-12) /. pi2) in
    shift ws j (int_of_float k)
  done;
  (* 2. sort by descending absolute value *)
  let byabs j = Float.abs v.(j) in
  if byabs 0 < byabs 1 then swap_coords ws 0 1;
  if byabs 1 < byabs 2 then swap_coords ws 1 2;
  if byabs 0 < byabs 1 then swap_coords ws 0 1;
  (* 3. make the two leading coordinates non-negative *)
  if v.(0) < 0.0 && v.(1) < 0.0 then flip ws Quantum.Pauli.Z
  else if v.(0) < 0.0 then flip ws Quantum.Pauli.Y
  else if v.(1) < 0.0 then flip ws Quantum.Pauli.X;
  (* 4. boundary rule: on the x = pi/4 face, z must be non-negative *)
  if Float.abs (v.(0) -. pi4) < 1e-9 && v.(2) < 0.0 then begin
    shift ws 0 (-1);
    flip ws Quantum.Pauli.Y
  end

(* --------------------------------------------------------------------- *)
(* Raw decomposition in the magic basis.                                 *)

(* [Mat.is_unitary ~tol:1e-7 u] on the workspace *)
let is_unitary ws u =
  Mat.dagger_into ~dst:ws.prod u;
  Mat.mul_into ~dst:ws.o1 ws.prod u;
  Mat.equal ~tol:1e-7 ws.o1 id4

let sum4 d = 0.0 +. d.(0) +. d.(1) +. d.(2) +. d.(3)

(* the decomposition proper, for a 4x4 unitary the caller has checked;
   counted as ("weyl", "decompose") so every decomposition that really
   runs shows in [Robust.Counters] *)
let decompose_core ws u =
  Robust.Counters.incr ~stage:"weyl" "decompose";
  (* u = e^{i a} usu with det usu = 1; the phase is the ratio at u's
     largest entry *)
  Mat.fix_det_su_into ~lu:ws.lu ~dst:ws.usu u;
  let ure = Mat.re_plane u and uim = Mat.im_plane u in
  let bk = ref 0 and best = ref 0.0 in
  for k = 0 to 15 do
    let v = Float.hypot ure.(k) uim.(k) in
    if v > !best then begin
      best := v;
      bk := k
    end
  done;
  let phase =
    Cx.( /: )
      (Cx.mk ure.(!bk) uim.(!bk))
      (Cx.mk (Mat.re_plane ws.usu).(!bk) (Mat.im_plane ws.usu).(!bk))
  in
  (* um = M† usu M, m2 = umᵀ um *)
  Mat.mul_into ~dst:ws.prod ws.usu magic;
  Mat.mul_into ~dst:ws.um magic_dag ws.prod;
  Mat.transpose_into ~dst:ws.pt ws.um;
  Mat.mul_into ~dst:ws.m2 ws.pt ws.um;
  Array.blit (Mat.re_plane ws.m2) 0 (Mat.re_plane ws.re) 0 16;
  Array.fill (Mat.im_plane ws.re) 0 16 0.0;
  Array.blit (Mat.im_plane ws.m2) 0 (Mat.re_plane ws.im) 0 16;
  Array.fill (Mat.im_plane ws.im) 0 16 0.0;
  let p = Eig.simultaneous_real_into ws.joint ws.re ws.im in
  (* force det p = +1 so locals are tensor products *)
  if Cx.re (Mat.det_into ~lu:ws.lu p) < 0.0 then begin
    let pre = Mat.re_plane p and pim = Mat.im_plane p in
    for i = 0 to 3 do
      pre.(4 * i) <- -.pre.(4 * i);
      pim.(4 * i) <- -.pim.(4 * i)
    done
  end;
  Mat.transpose_into ~dst:ws.pt p;
  Mat.mul_into ~dst:ws.prod ws.m2 p;
  Mat.mul_into ~dst:ws.dm ws.pt ws.prod;
  let delta = ws.delta in
  let dre = Mat.re_plane ws.dm and dim = Mat.im_plane ws.dm in
  for k = 0 to 3 do
    delta.(k) <- atan2 dim.(5 * k) dre.(5 * k) /. 2.0
  done;
  (* fix the branch so that sum delta = 0 (mod 2pi): det O1 must be +1 *)
  let sum = sum4 delta in
  if (int_of_float (Float.round (sum /. Float.pi)) mod 2 + 2) mod 2 = 1 then
    delta.(0) <- delta.(0) +. Float.pi;
  let dbar = sum4 delta /. 4.0 in
  (* raw coordinates from the traceless spectrum *)
  let d' k = delta.(k) -. dbar in
  ws.v.(0) <- (d' 2 +. d' 3) /. 2.0;
  ws.v.(1) <- (d' 0 +. d' 2) /. 2.0;
  ws.v.(2) <- (d' 1 +. d' 2) /. 2.0;
  (* o1 = um p diag(e^{i delta})† *)
  Mat.zero_fill ws.dm;
  for k = 0 to 3 do
    dre.(5 * k) <- cos delta.(k) *. 1.0;
    dim.(5 * k) <- sin delta.(k) *. 1.0
  done;
  Mat.dagger_into ~dst:ws.ddag ws.dm;
  Mat.mul_into ~dst:ws.prod p ws.ddag;
  Mat.mul_into ~dst:ws.o1 ws.um ws.prod;
  (* back from the magic basis: k1 = M o1 M† (into dm), r = M pᵀ M† *)
  Mat.mul_into ~dst:ws.prod ws.o1 magic_dag;
  Mat.mul_into ~dst:ws.dm magic ws.prod;
  Mat.mul_into ~dst:ws.prod ws.pt magic_dag;
  Mat.mul_into ~dst:ws.r magic ws.prod;
  Mat.smul_into ~dst:ws.l (Cx.( *: ) phase (Cx.expi dbar)) ws.dm;
  canonicalize ws;
  let coords = Coords.make ws.v.(0) ws.v.(1) ws.v.(2) in
  match (Quantum.Local.factor ~tol:1e-6 ws.l, Quantum.Local.factor ~tol:1e-6 ws.r) with
  | Some (a1, a2), Some (b1, b2) -> { a1; a2; coords; b1; b2 }
  | _ -> failwith "Kak.decompose: locals failed to factor (numerical breakdown)"

let reconstruct { a1; a2; coords; b1; b2 } =
  Mat.mul3 (Mat.kron a1 a2) (canonical coords) (Mat.kron b1 b2)

let decompose u =
  if Mat.rows u <> 4 || Mat.cols u <> 4 then invalid_arg "Kak.decompose: need 4x4";
  with_ws
    (fun ws u ->
      if not (is_unitary ws u) then failwith "Kak.decompose: input not unitary";
      decompose_core ws u)
    u

let coords_of u = (decompose u).coords

let decompose_r u =
  if Mat.rows u <> 4 || Mat.cols u <> 4 then
    Error (Robust.Err.Ill_conditioned { stage = "kak"; detail = "need a 4x4 matrix" })
  else if Mat.has_nan u then
    Error (Robust.Err.Nan_detected { stage = "kak"; site = "input" })
  else
    with_ws
      (fun ws u ->
        if not (is_unitary ws u) then
          Error (Robust.Err.Ill_conditioned { stage = "kak"; detail = "input not unitary" })
        else
          match decompose_core ws u with
          | d -> Ok d
          | exception Failure msg ->
            Error (Robust.Err.Ill_conditioned { stage = "kak"; detail = msg })
          | exception Invalid_argument msg ->
            Error (Robust.Err.Ill_conditioned { stage = "kak"; detail = msg }))
      u

let coords_of_r u = Result.map (fun d -> d.coords) (decompose_r u)

let locally_equivalent ?(tol = 1e-7) u v =
  Coords.dist (coords_of u) (coords_of v) <= tol
