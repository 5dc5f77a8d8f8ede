(* Structure-of-arrays dense complex matrices.

   The matrix is stored as two unboxed [float array] planes ([re], [im]) in
   row-major order, so the hot kernels (matrix product, Jacobi rotations,
   statevector updates) run on flat float arithmetic with no per-element
   [Complex.t] boxing. The historical boxed-[Cx] API ([get]/[set]/[mul]/...)
   is kept as thin shims over the planes so every caller compiles unchanged;
   performance-sensitive callers use the [_into] kernels below. *)

open Cx

type t = { rows : int; cols : int; re : float array; im : float array }

let create rows cols =
  if rows <= 0 || cols <= 0 then invalid_arg "Mat.create: non-positive size";
  { rows; cols; re = Array.make (rows * cols) 0.0; im = Array.make (rows * cols) 0.0 }

let rows m = m.rows
let cols m = m.cols

(* ------------------------------------------------------- SoA accessors *)

let get_re m i j = m.re.((i * m.cols) + j)
let get_im m i j = m.im.((i * m.cols) + j)

let set_parts m i j re im =
  let k = (i * m.cols) + j in
  m.re.(k) <- re;
  m.im.(k) <- im

(* Raw plane access for the kernel modules (Eig, Svd, State, Haar). The
   planes are row-major of length [rows * cols]; mutating them mutates the
   matrix. *)
let re_plane m = m.re
let im_plane m = m.im

(* ------------------------------------------------------ boxed-Cx shims *)

let get m i j =
  let k = (i * m.cols) + j in
  Cx.mk m.re.(k) m.im.(k)

let set m i j v =
  let k = (i * m.cols) + j in
  m.re.(k) <- Cx.re v;
  m.im.(k) <- Cx.im v

let init rows cols f =
  let m = create rows cols in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      set m i j (f i j)
    done
  done;
  m

let of_arrays rows_arr =
  let rows = Array.length rows_arr in
  if rows = 0 then invalid_arg "Mat.of_arrays: empty";
  let cols = Array.length rows_arr.(0) in
  Array.iter
    (fun r -> if Array.length r <> cols then invalid_arg "Mat.of_arrays: ragged rows")
    rows_arr;
  init rows cols (fun i j -> rows_arr.(i).(j))

let of_real_arrays rows_arr =
  let rows = Array.length rows_arr in
  if rows = 0 then invalid_arg "Mat.of_real_arrays: empty";
  let cols = Array.length rows_arr.(0) in
  Array.iter
    (fun r ->
      if Array.length r <> cols then invalid_arg "Mat.of_real_arrays: ragged rows")
    rows_arr;
  let m = create rows cols in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      m.re.((i * cols) + j) <- rows_arr.(i).(j)
    done
  done;
  m

let identity n =
  let m = create n n in
  for i = 0 to n - 1 do
    m.re.((i * n) + i) <- 1.0
  done;
  m

let copy m = { m with re = Array.copy m.re; im = Array.copy m.im }

let same_shape op a b =
  if a.rows <> b.rows || a.cols <> b.cols then
    invalid_arg (Printf.sprintf "Mat.%s: shape mismatch" op)

(* ----------------------------------------------------- in-place kernels *)

let zero_fill m =
  Array.fill m.re 0 (Array.length m.re) 0.0;
  Array.fill m.im 0 (Array.length m.im) 0.0

let copy_into ~dst m =
  same_shape "copy_into" dst m;
  Array.blit m.re 0 dst.re 0 (Array.length m.re);
  Array.blit m.im 0 dst.im 0 (Array.length m.im)

let check_no_alias op dst m =
  if dst.re == m.re then invalid_arg (Printf.sprintf "Mat.%s: dst aliases an input" op)

let has_nan m =
  let bad = ref false in
  let n = Array.length m.re in
  for k = 0 to n - 1 do
    if Float.is_nan (Array.unsafe_get m.re k) || Float.is_nan (Array.unsafe_get m.im k)
    then bad := true
  done;
  !bad

(* fault-injection hook (site [name]): poison entry (0,0) of [m]. The guard
   on [Fault.enabled] keeps the disabled cost to one branch per kernel call. *)
let poison_if_armed name m =
  if Robust.Fault.enabled () && Robust.Fault.fire name then m.re.(0) <- Float.nan

(* dst <- a * b. The inner loop is pure float arithmetic on the planes:
   no Complex.t is ever allocated. *)
let mul_into ~dst a b =
  if a.cols <> b.rows then invalid_arg "Mat.mul_into: inner dimension mismatch";
  if dst.rows <> a.rows || dst.cols <> b.cols then
    invalid_arg "Mat.mul_into: output shape mismatch";
  check_no_alias "mul_into" dst a;
  check_no_alias "mul_into" dst b;
  let n = a.rows and kd = a.cols and m = b.cols in
  zero_fill dst;
  let are = a.re and aim = a.im and bre = b.re and bim = b.im in
  let dre = dst.re and dim = dst.im in
  for i = 0 to n - 1 do
    let aoff = i * kd and doff = i * m in
    for p = 0 to kd - 1 do
      let ar = Array.unsafe_get are (aoff + p) and ai = Array.unsafe_get aim (aoff + p) in
      if ar <> 0.0 || ai <> 0.0 then begin
        let boff = p * m in
        for j = 0 to m - 1 do
          let br = Array.unsafe_get bre (boff + j) and bi = Array.unsafe_get bim (boff + j) in
          Array.unsafe_set dre (doff + j)
            (Array.unsafe_get dre (doff + j) +. ((ar *. br) -. (ai *. bi)));
          Array.unsafe_set dim (doff + j)
            (Array.unsafe_get dim (doff + j) +. ((ar *. bi) +. (ai *. br)))
        done
      end
    done
  done;
  poison_if_armed "mul_nan" dst

(* dst <- alpha * a * b + beta * dst (complex alpha, beta). *)
let gemm ~alpha ~beta ~dst a b =
  if a.cols <> b.rows then invalid_arg "Mat.gemm: inner dimension mismatch";
  if dst.rows <> a.rows || dst.cols <> b.cols then
    invalid_arg "Mat.gemm: output shape mismatch";
  check_no_alias "gemm" dst a;
  check_no_alias "gemm" dst b;
  let n = a.rows and kd = a.cols and m = b.cols in
  let alr = Cx.re alpha and ali = Cx.im alpha in
  let ber = Cx.re beta and bei = Cx.im beta in
  let dre = dst.re and dim = dst.im in
  (* dst <- beta * dst *)
  if ber = 0.0 && bei = 0.0 then zero_fill dst
  else if ber <> 1.0 || bei <> 0.0 then
    for k = 0 to (n * m) - 1 do
      let r = Array.unsafe_get dre k and i = Array.unsafe_get dim k in
      Array.unsafe_set dre k ((ber *. r) -. (bei *. i));
      Array.unsafe_set dim k ((ber *. i) +. (bei *. r))
    done;
  let are = a.re and aim = a.im and bre = b.re and bim = b.im in
  for i = 0 to n - 1 do
    let aoff = i * kd and doff = i * m in
    for p = 0 to kd - 1 do
      let ar0 = Array.unsafe_get are (aoff + p) and ai0 = Array.unsafe_get aim (aoff + p) in
      (* fold alpha into the a element once per (i, p) *)
      let ar = (alr *. ar0) -. (ali *. ai0) and ai = (alr *. ai0) +. (ali *. ar0) in
      if ar <> 0.0 || ai <> 0.0 then begin
        let boff = p * m in
        for j = 0 to m - 1 do
          let br = Array.unsafe_get bre (boff + j) and bi = Array.unsafe_get bim (boff + j) in
          Array.unsafe_set dre (doff + j)
            (Array.unsafe_get dre (doff + j) +. ((ar *. br) -. (ai *. bi)));
          Array.unsafe_set dim (doff + j)
            (Array.unsafe_get dim (doff + j) +. ((ar *. bi) +. (ai *. br)))
        done
      end
    done
  done

let add_into ~dst a b =
  same_shape "add_into" a b;
  same_shape "add_into" dst a;
  for k = 0 to Array.length a.re - 1 do
    dst.re.(k) <- a.re.(k) +. b.re.(k);
    dst.im.(k) <- a.im.(k) +. b.im.(k)
  done

let sub_into ~dst a b =
  same_shape "sub_into" a b;
  same_shape "sub_into" dst a;
  for k = 0 to Array.length a.re - 1 do
    dst.re.(k) <- a.re.(k) -. b.re.(k);
    dst.im.(k) <- a.im.(k) -. b.im.(k)
  done

let dagger_into ~dst m =
  if dst.rows <> m.cols || dst.cols <> m.rows then
    invalid_arg "Mat.dagger_into: output shape mismatch";
  check_no_alias "dagger_into" dst m;
  for i = 0 to m.rows - 1 do
    for j = 0 to m.cols - 1 do
      let k = (i * m.cols) + j and k' = (j * m.rows) + i in
      dst.re.(k') <- m.re.(k);
      dst.im.(k') <- -.m.im.(k)
    done
  done

(* dst <- s * m for a real scalar; dst may be m itself. *)
let scale_into ~dst s m =
  same_shape "scale_into" dst m;
  for k = 0 to Array.length m.re - 1 do
    dst.re.(k) <- s *. m.re.(k);
    dst.im.(k) <- s *. m.im.(k)
  done

(* dst <- z * m for a complex scalar; dst may be m itself. *)
let smul_into ~dst z m =
  same_shape "smul_into" dst m;
  let zr = Cx.re z and zi = Cx.im z in
  for k = 0 to Array.length m.re - 1 do
    let r = m.re.(k) and i = m.im.(k) in
    dst.re.(k) <- (zr *. r) -. (zi *. i);
    dst.im.(k) <- (zr *. i) +. (zi *. r)
  done

(* y <- y + alpha * x for a real scalar alpha. *)
let axpy ~alpha x y =
  same_shape "axpy" x y;
  for k = 0 to Array.length x.re - 1 do
    y.re.(k) <- y.re.(k) +. (alpha *. x.re.(k));
    y.im.(k) <- y.im.(k) +. (alpha *. x.im.(k))
  done

(* tr(a * b) without forming the product: sum_{i,p} a[i,p] * b[p,i]. *)
let trace_mul a b =
  if a.cols <> b.rows || a.rows <> b.cols then
    invalid_arg "Mat.trace_mul: shape mismatch";
  let tr = ref 0.0 and ti = ref 0.0 in
  for i = 0 to a.rows - 1 do
    let aoff = i * a.cols in
    for p = 0 to a.cols - 1 do
      let ar = a.re.(aoff + p) and ai = a.im.(aoff + p) in
      let br = b.re.((p * b.cols) + i) and bi = b.im.((p * b.cols) + i) in
      tr := !tr +. ((ar *. br) -. (ai *. bi));
      ti := !ti +. ((ar *. bi) +. (ai *. br))
    done
  done;
  Cx.mk !tr !ti

(* ------------------------------------------------------------ pure API *)

let add a b =
  same_shape "add" a b;
  let dst = create a.rows a.cols in
  add_into ~dst a b;
  dst

let sub a b =
  same_shape "sub" a b;
  let dst = create a.rows a.cols in
  sub_into ~dst a b;
  dst

let mul a b =
  if a.cols <> b.rows then invalid_arg "Mat.mul: inner dimension mismatch";
  let dst = create a.rows b.cols in
  mul_into ~dst a b;
  dst

let mul3 a b c = mul a (mul b c)

let mul_list = function
  | [] -> invalid_arg "Mat.mul_list: empty"
  | m :: ms -> List.fold_left mul m ms

let smul s m =
  let dst = create m.rows m.cols in
  smul_into ~dst s m;
  dst

let rsmul s m =
  let dst = create m.rows m.cols in
  scale_into ~dst s m;
  dst

let neg m = rsmul (-1.0) m

let transpose_into ~dst m =
  if dst.rows <> m.cols || dst.cols <> m.rows then
    invalid_arg "Mat.transpose_into: output shape mismatch";
  check_no_alias "transpose_into" dst m;
  for i = 0 to m.rows - 1 do
    for j = 0 to m.cols - 1 do
      let k = (i * m.cols) + j and k' = (j * m.rows) + i in
      dst.re.(k') <- m.re.(k);
      dst.im.(k') <- m.im.(k)
    done
  done

let transpose m =
  let dst = create m.cols m.rows in
  transpose_into ~dst m;
  dst

let dagger m =
  let dst = create m.cols m.rows in
  dagger_into ~dst m;
  dst

let conj m =
  let dst = copy m in
  for k = 0 to Array.length dst.im - 1 do
    dst.im.(k) <- -.dst.im.(k)
  done;
  dst

let trace m =
  if m.rows <> m.cols then invalid_arg "Mat.trace: non-square";
  let tr = ref 0.0 and ti = ref 0.0 in
  for i = 0 to m.rows - 1 do
    let k = (i * m.cols) + i in
    tr := !tr +. m.re.(k);
    ti := !ti +. m.im.(k)
  done;
  Cx.mk !tr !ti

let kron a b =
  let dst = create (a.rows * b.rows) (a.cols * b.cols) in
  let cols = dst.cols in
  for i = 0 to dst.rows - 1 do
    for j = 0 to cols - 1 do
      let ka = ((i / b.rows) * a.cols) + (j / b.cols) in
      let kb = ((i mod b.rows) * b.cols) + (j mod b.cols) in
      let ar = a.re.(ka) and ai = a.im.(ka) in
      let br = b.re.(kb) and bi = b.im.(kb) in
      dst.re.((i * cols) + j) <- (ar *. br) -. (ai *. bi);
      dst.im.((i * cols) + j) <- (ar *. bi) +. (ai *. br)
    done
  done;
  dst

let apply m v =
  if m.cols <> Array.length v then invalid_arg "Mat.apply: size mismatch";
  Array.init m.rows (fun i ->
      let sr = ref 0.0 and si = ref 0.0 in
      let off = i * m.cols in
      for j = 0 to m.cols - 1 do
        let vr = Cx.re v.(j) and vi = Cx.im v.(j) in
        let ar = m.re.(off + j) and ai = m.im.(off + j) in
        sr := !sr +. ((ar *. vr) -. (ai *. vi));
        si := !si +. ((ar *. vi) +. (ai *. vr))
      done;
      Cx.mk !sr !si)

(* LU with partial pivoting in [lu]'s planes. The pivot norm is
   [Complex.norm] (hypot), the multiplier [Complex.div] and the update
   [Complex.sub]/[Complex.mul], each written out term for term, so the
   determinant has the bits of the boxed elimination. *)
let det_into ~lu m =
  if m.rows <> m.cols then invalid_arg "Mat.det: non-square";
  copy_into ~dst:lu m;
  let n = m.rows and re = lu.re and im = lu.im in
  let sign = ref 1.0 and singular = ref false and k = ref 0 in
  while (not !singular) && !k < n do
    let kk = !k in
    let piv = ref kk and best = ref (Float.hypot re.((kk * n) + kk) im.((kk * n) + kk)) in
    for i = kk + 1 to n - 1 do
      let v = Float.hypot re.((i * n) + kk) im.((i * n) + kk) in
      if v > !best then begin
        best := v;
        piv := i
      end
    done;
    if !best < 1e-300 then singular := true
    else begin
      if !piv <> kk then begin
        sign := -. !sign;
        for j = 0 to n - 1 do
          let a = (kk * n) + j and b = (!piv * n) + j in
          let tr = re.(a) and ti = im.(a) in
          re.(a) <- re.(b);
          im.(a) <- im.(b);
          re.(b) <- tr;
          im.(b) <- ti
        done
      end;
      let yr = re.((kk * n) + kk) and yi = im.((kk * n) + kk) in
      let big = Float.abs yr >= Float.abs yi in
      let r = if big then yi /. yr else yr /. yi in
      let d = if big then yr +. (r *. yi) else yi +. (r *. yr) in
      for i = kk + 1 to n - 1 do
        let xr = re.((i * n) + kk) and xi = im.((i * n) + kk) in
        let fr = if big then (xr +. (r *. xi)) /. d else ((r *. xr) +. xi) /. d in
        let fi = if big then (xi -. (r *. xr)) /. d else ((r *. xi) -. xr) /. d in
        re.((i * n) + kk) <- fr;
        im.((i * n) + kk) <- fi;
        for j = kk + 1 to n - 1 do
          let kr = re.((kk * n) + j) and ki = im.((kk * n) + j) in
          re.((i * n) + j) <- re.((i * n) + j) -. ((fr *. kr) -. (fi *. ki));
          im.((i * n) + j) <- im.((i * n) + j) -. ((fr *. ki) +. (fi *. kr))
        done
      done;
      incr k
    end
  done;
  if !singular then Cx.zero
  else begin
    let dr = ref !sign and di = ref 0.0 in
    for i = 0 to n - 1 do
      let yr = re.((i * n) + i) and yi = im.((i * n) + i) in
      let r = (!dr *. yr) -. (!di *. yi) in
      di := (!dr *. yi) +. (!di *. yr);
      dr := r
    done;
    Cx.mk !dr !di
  end

let det m = det_into ~lu:(create m.rows m.cols) m

let inv m =
  if m.rows <> m.cols then invalid_arg "Mat.inv: non-square";
  let n = m.rows in
  let aug = init n (2 * n) (fun i j ->
      if j < n then get m i j else if j - n = i then Cx.one else Cx.zero)
  in
  for k = 0 to n - 1 do
    let piv = ref k and best = ref (Cx.norm (get aug k k)) in
    for i = k + 1 to n - 1 do
      let v = Cx.norm (get aug i k) in
      if v > !best then begin
        best := v;
        piv := i
      end
    done;
    if !best < 1e-300 then failwith "Mat.inv: singular matrix";
    if !piv <> k then
      for j = 0 to (2 * n) - 1 do
        let t = get aug k j in
        set aug k j (get aug !piv j);
        set aug !piv j t
      done;
    let pivot = get aug k k in
    for j = 0 to (2 * n) - 1 do
      set aug k j (get aug k j /: pivot)
    done;
    for i = 0 to n - 1 do
      if i <> k then begin
        let f = get aug i k in
        if f <> Cx.zero then
          for j = 0 to (2 * n) - 1 do
            set aug i j (get aug i j -: (f *: get aug k j))
          done
      end
    done
  done;
  init n n (fun i j -> get aug i (j + n))

let frobenius_norm m =
  let s = ref 0.0 in
  for k = 0 to Array.length m.re - 1 do
    s := !s +. (m.re.(k) *. m.re.(k)) +. (m.im.(k) *. m.im.(k))
  done;
  Float.sqrt !s

let frobenius_dist a b =
  same_shape "frobenius_dist" a b;
  let s = ref 0.0 in
  for k = 0 to Array.length a.re - 1 do
    let dr = a.re.(k) -. b.re.(k) and di = a.im.(k) -. b.im.(k) in
    s := !s +. (dr *. dr) +. (di *. di)
  done;
  Float.sqrt !s

let max_abs m =
  let best = ref 0.0 in
  for k = 0 to Array.length m.re - 1 do
    let v = Float.hypot m.re.(k) m.im.(k) in
    if v > !best then best := v
  done;
  !best

let equal ?(tol = 1e-9) a b =
  a.rows = b.rows && a.cols = b.cols
  &&
  let rec go k =
    k >= Array.length a.re
    || (Float.hypot (a.re.(k) -. b.re.(k)) (a.im.(k) -. b.im.(k)) <= tol && go (k + 1))
  in
  go 0

let is_unitary ?(tol = 1e-9) m =
  m.rows = m.cols && equal ~tol (mul (dagger m) m) (identity m.rows)

let is_hermitian ?(tol = 1e-9) m = m.rows = m.cols && equal ~tol (dagger m) m

let phase_dist a b =
  same_shape "phase_dist" a b;
  (* the minimizing phase is arg tr(b† a); evaluate the distance entrywise
     at that phase (the closed form ||a||^2+||b||^2-2|tr| cancels
     catastrophically near zero) *)
  let ip = trace_mul (dagger b) a in
  let phase = if Cx.norm ip < 1e-300 then Cx.one else Cx.expi (Cx.arg ip) in
  frobenius_dist a (smul phase b)

let allclose_up_to_phase ?(tol = 1e-9) a b =
  a.rows = b.rows && a.cols = b.cols && phase_dist a b <= tol *. float_of_int a.rows

let fix_det_su_into ~lu ~dst m =
  if m.rows <> m.cols then invalid_arg "Mat.fix_det_su: non-square";
  let d = det_into ~lu m in
  if Cx.norm d < 1e-12 then copy_into ~dst m
  else
    (* multiply by exp(-i arg(det)/n) *)
    smul_into ~dst (Cx.expi (-.Cx.arg d /. float_of_int m.rows)) m

let fix_det_su m =
  let dst = create m.rows m.cols in
  fix_det_su_into ~lu:(create m.rows m.cols) ~dst m;
  dst

let pp ppf m =
  Format.fprintf ppf "@[<v>";
  for i = 0 to m.rows - 1 do
    Format.fprintf ppf "[";
    for j = 0 to m.cols - 1 do
      if j > 0 then Format.fprintf ppf ", ";
      Cx.pp ppf (get m i j)
    done;
    Format.fprintf ppf "]";
    if i < m.rows - 1 then Format.fprintf ppf "@,"
  done;
  Format.fprintf ppf "@]"

let to_string m = Format.asprintf "%a" pp m
