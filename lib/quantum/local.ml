open Numerics

(* Reads [m]'s planes and allocates only the two factors. Entry norms are
   [Complex.norm] (hypot), the fold of b~[k0][l0] into a is [Complex.div]
   written out term for term, and the final check is [Mat.equal] of
   [Mat.kron a b] against [m], entry by entry. *)
let factor ?(tol = 1e-8) m =
  if Mat.rows m <> 4 || Mat.cols m <> 4 then invalid_arg "Local.factor: need 4x4";
  let re = Mat.re_plane m and im = Mat.im_plane m in
  (* index (2i + k, 2j + l) = a[i][j] * b[k][l]; slice through the largest
     entry to avoid dividing by noise. *)
  let bk = ref 0 and best = ref 0.0 in
  for k = 0 to 15 do
    let v = Float.hypot re.(k) im.(k) in
    if v > !best then begin
      best := v;
      bk := k
    end
  done;
  if !best < tol then None
  else begin
    let bi = !bk / 4 and bj = !bk mod 4 in
    let i0 = bi / 2 and k0 = bi mod 2 and j0 = bj / 2 and l0 = bj mod 2 in
    (* a~[i][j] = m[2i + k0][2j + l0] = a[i][j] * b[k0][l0];
       b~[k][l] = m[2i0 + k][2j0 + l] = a[i0][j0] * b[k][l] *)
    let b00 = (2 * i0 * 4) + (2 * j0) and b10 = (((2 * i0) + 1) * 4) + (2 * j0) in
    (* scale b~ to a unitary: its columns have norm |a[i0][j0]| *)
    let cb =
      Float.sqrt
        ((re.(b00) *. re.(b00)) +. (im.(b00) *. im.(b00))
        +. ((re.(b10) *. re.(b10)) +. (im.(b10) *. im.(b10))))
    in
    if cb < tol then None
    else begin
      let s = 1.0 /. cb in
      let b = Mat.create 2 2 in
      let bre = Mat.re_plane b and bim = Mat.im_plane b in
      for k = 0 to 1 do
        for l = 0 to 1 do
          let src = ((((2 * i0) + k) * 4) + (2 * j0)) + l in
          bre.((2 * k) + l) <- s *. re.(src);
          bim.((2 * k) + l) <- s *. im.(src)
        done
      done;
      (* m = (a~ / b[k0][l0]) ⊗ b: fold b[k0][l0] into a *)
      let yr = bre.((2 * k0) + l0) and yi = bim.((2 * k0) + l0) in
      if Float.hypot yr yi < tol then None
      else begin
        let big = Float.abs yr >= Float.abs yi in
        let r = if big then yi /. yr else yr /. yi in
        let d = if big then yr +. (r *. yi) else yi +. (r *. yr) in
        let a = Mat.create 2 2 in
        let are = Mat.re_plane a and aim = Mat.im_plane a in
        for i = 0 to 1 do
          for j = 0 to 1 do
            let src = ((((2 * i) + k0) * 4) + (2 * j)) + l0 in
            let xr = re.(src) and xi = im.(src) in
            are.((2 * i) + j) <- (if big then (xr +. (r *. xi)) /. d else ((r *. xr) +. xi) /. d);
            aim.((2 * i) + j) <- (if big then (xi -. (r *. xr)) /. d else ((r *. xi) -. xr) /. d)
          done
        done;
        (* Mat.equal ~tol (Mat.kron a b) m *)
        let rec close k =
          k >= 16
          ||
          let i = k / 4 and j = k mod 4 in
          let ka = (i / 2 * 2) + (j / 2) and kb = (i mod 2 * 2) + (j mod 2) in
          let ar = are.(ka) and ai = aim.(ka) and br = bre.(kb) and bi = bim.(kb) in
          Float.hypot (((ar *. br) -. (ai *. bi)) -. re.(k)) (((ar *. bi) +. (ai *. br)) -. im.(k))
          <= tol
          && close (k + 1)
        in
        if close 0 then Some (a, b) else None
      end
    end
  end

let is_local ?tol m = Option.is_some (factor ?tol m)
