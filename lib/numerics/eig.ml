(* Cyclic complex Jacobi on the SoA float planes. The rotation inner loops
   are pure float arithmetic — no Complex.t is allocated per element. *)

let offdiag_norm m =
  let n = Mat.rows m in
  let re = Mat.re_plane m and im = Mat.im_plane m in
  let s = ref 0.0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then begin
        let k = (i * n) + j in
        s := !s +. (re.(k) *. re.(k)) +. (im.(k) *. im.(k))
      end
    done
  done;
  Float.sqrt !s

(* One complex Jacobi rotation zeroing the (p,q) element of Hermitian [a],
   accumulating the rotation into [v] (a <- g† a g, v <- v g), where
   g[p][p]=c; g[p][q]=s*e; g[q][p]=-s*conj(e); g[q][q]=c with e = a_pq/|a_pq|. *)
let rotate a v p q =
  let n = Mat.rows a in
  let are = Mat.re_plane a and aim = Mat.im_plane a in
  let vre = Mat.re_plane v and vim = Mat.im_plane v in
  let kpq = (p * n) + q in
  let apqr = are.(kpq) and apqi = aim.(kpq) in
  let napq = Float.hypot apqr apqi in
  if napq > 1e-300 then begin
    let app = are.((p * n) + p) and aqq = are.((q * n) + q) in
    let theta = 0.5 *. atan2 (2.0 *. napq) (aqq -. app) in
    let c = cos theta and s = sin theta in
    let er = apqr /. napq and ei = apqi /. napq in
    (* a <- g† a g : update columns p,q then rows p,q *)
    for i = 0 to n - 1 do
      let kp = (i * n) + p and kq = (i * n) + q in
      let pr = Array.unsafe_get are kp and pi = Array.unsafe_get aim kp in
      let qr = Array.unsafe_get are kq and qi = Array.unsafe_get aim kq in
      (* a[i,p] <- c*aip - s*conj(e)*aiq *)
      Array.unsafe_set are kp ((c *. pr) -. (s *. ((er *. qr) +. (ei *. qi))));
      Array.unsafe_set aim kp ((c *. pi) -. (s *. ((er *. qi) -. (ei *. qr))));
      (* a[i,q] <- s*e*aip + c*aiq *)
      Array.unsafe_set are kq ((s *. ((er *. pr) -. (ei *. pi))) +. (c *. qr));
      Array.unsafe_set aim kq ((s *. ((er *. pi) +. (ei *. pr))) +. (c *. qi))
    done;
    for j = 0 to n - 1 do
      let kp = (p * n) + j and kq = (q * n) + j in
      let pr = Array.unsafe_get are kp and pi = Array.unsafe_get aim kp in
      let qr = Array.unsafe_get are kq and qi = Array.unsafe_get aim kq in
      (* a[p,j] <- c*apj - s*e*aqj *)
      Array.unsafe_set are kp ((c *. pr) -. (s *. ((er *. qr) -. (ei *. qi))));
      Array.unsafe_set aim kp ((c *. pi) -. (s *. ((er *. qi) +. (ei *. qr))));
      (* a[q,j] <- s*conj(e)*apj + c*aqj *)
      Array.unsafe_set are kq ((s *. ((er *. pr) +. (ei *. pi))) +. (c *. qr));
      Array.unsafe_set aim kq ((s *. ((er *. pi) -. (ei *. pr))) +. (c *. qi))
    done;
    for i = 0 to n - 1 do
      let kp = (i * n) + p and kq = (i * n) + q in
      let pr = Array.unsafe_get vre kp and pi = Array.unsafe_get vim kp in
      let qr = Array.unsafe_get vre kq and qi = Array.unsafe_get vim kq in
      (* v[i,p] <- c*vip - s*conj(e)*viq *)
      Array.unsafe_set vre kp ((c *. pr) -. (s *. ((er *. qr) +. (ei *. qi))));
      Array.unsafe_set vim kp ((c *. pi) -. (s *. ((er *. qi) -. (ei *. qr))));
      (* v[i,q] <- s*e*vip + c*viq *)
      Array.unsafe_set vre kq ((s *. ((er *. pr) -. (ei *. pi))) +. (c *. qr));
      Array.unsafe_set vim kq ((s *. ((er *. pi) +. (ei *. pr))) +. (c *. qi))
    done
  end

(* In-place cyclic Jacobi: [a] holds the Hermitian matrix on entry and is
   destroyed; [v] receives the eigenvectors (columns), [w] the unsorted
   eigenvalues. Only the caller-provided buffers are written — no
   allocation beyond loop indices. *)
let jacobi_into ~a ~v ~w =
  let n = Mat.rows a in
  if n <> Mat.cols a then invalid_arg "Eig: non-square matrix";
  if Mat.rows v <> n || Mat.cols v <> n || Array.length w <> n then
    invalid_arg "Eig.jacobi_into: buffer shape mismatch";
  Mat.zero_fill v;
  let vre = Mat.re_plane v in
  for i = 0 to n - 1 do
    vre.((i * n) + i) <- 1.0
  done;
  let max_sweeps =
    if Robust.Fault.enabled () && Robust.Fault.fire "jacobi_stall" then 1 else 100
  in
  let tol = 1e-14 *. (1.0 +. Mat.max_abs a) in
  (* the sweep cap makes this total even on NaN-poisoned input (every
     comparison against NaN is false, so the loop exits immediately); the
     final off-diagonal norm is returned so callers can detect and report
     non-convergence instead of silently using a bad basis *)
  let rec go sweeps =
    let r = offdiag_norm a in
    if r > tol && sweeps < max_sweeps then begin
      for p = 0 to n - 2 do
        for q = p + 1 to n - 1 do
          rotate a v p q
        done
      done;
      go (sweeps + 1)
    end
    else r
  in
  let residual = go 0 in
  let are = Mat.re_plane a in
  for i = 0 to n - 1 do
    w.(i) <- are.((i * n) + i)
  done;
  residual

let jacobi a0 =
  let n = Mat.rows a0 in
  if n <> Mat.cols a0 then invalid_arg "Eig: non-square matrix";
  let a = Mat.copy a0 in
  let v = Mat.create n n in
  let w = Array.make n 0.0 in
  let (_ : float) = jacobi_into ~a ~v ~w in
  (w, v)

(* [order] <- the permutation that sorts [w] ascending ([by_value]
   compares [w] at two indices; the stdlib sort, so ties fall as they
   always have), and column j of [dst] <- column [order.(j)] of [v] *)
let sort_into ~w ~v ~order ~by_value ~dst =
  let n = Array.length w in
  for i = 0 to n - 1 do
    order.(i) <- i
  done;
  Array.sort by_value order;
  let vre = Mat.re_plane v and vim = Mat.im_plane v in
  let dre = Mat.re_plane dst and dim = Mat.im_plane dst in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      dre.((i * n) + j) <- vre.((i * n) + order.(j));
      dim.((i * n) + j) <- vim.((i * n) + order.(j))
    done
  done

let hermitian m =
  let tol = 1e-8 *. (1.0 +. Mat.max_abs m) in
  if not (Mat.is_hermitian ~tol m) then invalid_arg "Eig.hermitian: not Hermitian";
  let w, v = jacobi m in
  let n = Array.length w in
  let order = Array.make n 0 and dst = Mat.create n n in
  sort_into ~w ~v ~order ~by_value:(fun i j -> Float.compare w.(i) w.(j)) ~dst;
  (Array.map (fun i -> w.(i)) order, dst)

type joint = {
  mix : Mat.t;  (** cos t * a + sin t * b; destroyed by the eigensolve *)
  vecs : Mat.t;  (** its eigenvectors, unsorted *)
  w : float array;
  order : int array;
  by_value : int -> int -> int;
  sorted : Mat.t;  (** the eigenvectors sorted by eigenvalue: the result *)
  vt : Mat.t;
  prod : Mat.t;
  da : Mat.t;
  db : Mat.t;
}

let joint_ws n =
  let mat () = Mat.create n n in
  let w = Array.make n 0.0 in
  {
    mix = mat ();
    vecs = mat ();
    w;
    order = Array.make n 0;
    by_value = (fun i j -> Float.compare w.(i) w.(j));
    sorted = mat ();
    vt = mat ();
    prod = mat ();
    da = mat ();
    db = mat ();
  }

(* both products are formed before either is tested, so an armed
   [mul_nan] fires at the same call counts whatever the verdict *)
let joint_diagonalizes ws a b =
  let tol m = 1e-9 *. (1.0 +. Mat.max_abs m) in
  Mat.transpose_into ~dst:ws.vt ws.sorted;
  Mat.mul_into ~dst:ws.prod a ws.sorted;
  Mat.mul_into ~dst:ws.da ws.vt ws.prod;
  Mat.mul_into ~dst:ws.prod b ws.sorted;
  Mat.mul_into ~dst:ws.db ws.vt ws.prod;
  offdiag_norm ws.da <= tol a && offdiag_norm ws.db <= tol b

(* Deterministic sequence of mixing angles; a generic angle separates the
   joint spectrum of a commuting pair with probability 1. *)
let angles = [ 0.7853; 1.1234; 0.3141; 2.0345; 0.5555; 1.7771; 2.9113; 0.1000 ]

let rec try_angles ws a b = function
  | [] ->
    failwith
      (Robust.Err.to_string
         (Robust.Err.Ill_conditioned
            { stage = "eig.simultaneous"; detail = "no mixing angle separated the joint spectrum" }))
  | t :: rest ->
    Mat.scale_into ~dst:ws.mix (cos t) a;
    Mat.scale_into ~dst:ws.prod (sin t) b;
    Mat.add_into ~dst:ws.mix ws.mix ws.prod;
    let (_ : float) = jacobi_into ~a:ws.mix ~v:ws.vecs ~w:ws.w in
    sort_into ~w:ws.w ~v:ws.vecs ~order:ws.order ~by_value:ws.by_value ~dst:ws.sorted;
    if joint_diagonalizes ws a b then ws.sorted else try_angles ws a b rest

let simultaneous_real_into ws a b = try_angles ws a b angles
let simultaneous_real a b = simultaneous_real_into (joint_ws (Mat.rows a)) a b
