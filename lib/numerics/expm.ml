(* Spectral matrix functions of Hermitian generators, on the SoA planes.

   f(H) = V diag(f(w)) V† is assembled directly from the eigenvector planes:
   dst[i,j] = sum_k v[i,k] f(w_k) conj(v[j,k]) — a pure float triple loop,
   no per-element boxing. The [ws] workspace makes repeated exponentials
   (pulse-solver residual loops) run with zero allocation per call. *)

type ws = {
  dim : int;
  a : Mat.t; (* Jacobi working copy (destroyed per call) *)
  v : Mat.t; (* eigenvectors *)
  w : float array; (* eigenvalues (unsorted) *)
  fr : float array; (* Re f(w_k) *)
  fi : float array; (* Im f(w_k) *)
}

let make_ws dim =
  {
    dim;
    a = Mat.create dim dim;
    v = Mat.create dim dim;
    w = Array.make dim 0.0;
    fr = Array.make dim 0.0;
    fi = Array.make dim 0.0;
  }

(* dst <- V diag(fr + i fi) V† from the workspace planes. *)
let assemble ws ~dst =
  let n = ws.dim in
  let vre = Mat.re_plane ws.v and vim = Mat.im_plane ws.v in
  let dre = Mat.re_plane dst and dim_ = Mat.im_plane dst in
  let fr = ws.fr and fi = ws.fi in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let sr = ref 0.0 and si = ref 0.0 in
      for k = 0 to n - 1 do
        let vikr = Array.unsafe_get vre ((i * n) + k)
        and viki = Array.unsafe_get vim ((i * n) + k) in
        let vjkr = Array.unsafe_get vre ((j * n) + k)
        and vjki = Array.unsafe_get vim ((j * n) + k) in
        let fkr = Array.unsafe_get fr k and fki = Array.unsafe_get fi k in
        (* t = v[i,k] * f_k *)
        let tr = (vikr *. fkr) -. (viki *. fki) in
        let ti = (vikr *. fki) +. (viki *. fkr) in
        (* dst += t * conj(v[j,k]) *)
        sr := !sr +. ((tr *. vjkr) +. (ti *. vjki));
        si := !si +. ((ti *. vjkr) -. (tr *. vjki))
      done;
      dre.((i * n) + j) <- !sr;
      dim_.((i * n) + j) <- !si
    done
  done

(* fault hook: poison one output entry of a freshly assembled exponential
   (site "expm_nan"); one branch per call when disarmed *)
let poison_if_armed dst =
  if Robust.Fault.enabled () && Robust.Fault.fire "expm_nan" then
    (Mat.re_plane dst).(0) <- Float.nan

let herm_expi_into ws ~dst h ~t =
  let n = ws.dim in
  if Mat.rows h <> n || Mat.cols h <> n then
    invalid_arg "Expm.herm_expi_into: workspace size mismatch";
  if Mat.rows dst <> n || Mat.cols dst <> n then
    invalid_arg "Expm.herm_expi_into: output shape mismatch";
  Mat.copy_into ~dst:ws.a h;
  let (_ : float) = Eig.jacobi_into ~a:ws.a ~v:ws.v ~w:ws.w in
  for k = 0 to n - 1 do
    let phi = -.t *. ws.w.(k) in
    ws.fr.(k) <- cos phi;
    ws.fi.(k) <- sin phi
  done;
  assemble ws ~dst;
  poison_if_armed dst

let herm_expi h ~t =
  let n = Mat.rows h in
  let ws = make_ws n in
  let dst = Mat.create n n in
  herm_expi_into ws ~dst h ~t;
  dst
