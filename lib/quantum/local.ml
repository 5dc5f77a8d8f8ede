open Numerics

let factor ?(tol = 1e-8) m =
  if Mat.rows m <> 4 || Mat.cols m <> 4 then invalid_arg "Local.factor: need 4x4";
  (* index (2i + k, 2j + l) = a[i][j] * b[k][l]; slice through the largest
     entry to avoid dividing by noise. *)
  let bi = ref 0 and bj = ref 0 and best = ref 0.0 in
  for i = 0 to 3 do
    for j = 0 to 3 do
      let v = Cx.norm (Mat.get m i j) in
      if v > !best then begin
        best := v;
        bi := i;
        bj := j
      end
    done
  done;
  if !best < tol then None
  else begin
    let i0 = !bi / 2 and k0 = !bi mod 2 and j0 = !bj / 2 and l0 = !bj mod 2 in
    (* a~[i][j] = a[i][j] * b[k0][l0];  b~[k][l] = a[i0][j0] * b[k][l] *)
    let a_t = Mat.init 2 2 (fun i j -> Mat.get m ((2 * i) + k0) ((2 * j) + l0)) in
    let b_t = Mat.init 2 2 (fun k l -> Mat.get m ((2 * i0) + k) ((2 * j0) + l)) in
    (* scale b~ to a unitary: its columns have norm |a[i0][j0]| *)
    let cb =
      Float.sqrt (Cx.norm2 (Mat.get b_t 0 0) +. Cx.norm2 (Mat.get b_t 1 0))
    in
    if cb < tol then None
    else begin
      let b = Mat.rsmul (1.0 /. cb) b_t in
      (* now m = (a~ / b~[k0][l0] * b[k0][l0]... ) recover a: a~ = a * b[k0][l0]
         and the exact relation m = (a~ ⊗ b) / b[k0][l0]; fold into a. *)
      let bkl = Mat.get b k0 l0 in
      if Cx.norm bkl < tol then None
      else begin
        let a = Mat.init 2 2 (fun i j -> Cx.( /: ) (Mat.get a_t i j) bkl) in
        if Mat.equal ~tol (Mat.kron a b) m then Some (a, b) else None
      end
    end
  end

let is_local ?tol m = Option.is_some (factor ?tol m)
