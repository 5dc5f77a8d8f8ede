open Numerics

let zc = Cx.zero
let oc = Cx.one
let x = Pauli.matrix_1q Pauli.X
let y = Pauli.matrix_1q Pauli.Y
let z = Pauli.matrix_1q Pauli.Z

let h =
  let r = 1.0 /. sqrt 2.0 in
  Mat.of_real_arrays [| [| r; r |]; [| r; -.r |] |]

let s = Mat.of_arrays [| [| oc; zc |]; [| zc; Cx.i |] |]
let sdg = Mat.dagger s
let t = Mat.of_arrays [| [| oc; zc |]; [| zc; Cx.expi (Float.pi /. 4.0) |] |]
let tdg = Mat.dagger t

let rx theta =
  let c = Cx.of_float (cos (theta /. 2.0)) and s = Cx.mk 0.0 (-.sin (theta /. 2.0)) in
  Mat.of_arrays [| [| c; s |]; [| s; c |] |]

let ry theta =
  let c = cos (theta /. 2.0) and s = sin (theta /. 2.0) in
  Mat.of_real_arrays [| [| c; -.s |]; [| s; c |] |]

let rz theta =
  Mat.of_arrays
    [|
      [| Cx.expi (-.theta /. 2.0); zc |];
      [| zc; Cx.expi (theta /. 2.0) |];
    |]

let phase theta = Mat.of_arrays [| [| oc; zc |]; [| zc; Cx.expi theta |] |]

let u3 theta phi lam =
  let c = cos (theta /. 2.0) and s = sin (theta /. 2.0) in
  Mat.of_arrays
    [|
      [| Cx.of_float c; Cx.neg (Cx.polar s lam) |];
      [| Cx.polar s phi; Cx.polar c (phi +. lam) |];
    |]

let cnot =
  Mat.of_real_arrays
    [|
      [| 1.; 0.; 0.; 0. |];
      [| 0.; 1.; 0.; 0. |];
      [| 0.; 0.; 0.; 1. |];
      [| 0.; 0.; 1.; 0. |];
    |]

let cz =
  Mat.of_real_arrays
    [|
      [| 1.; 0.; 0.; 0. |];
      [| 0.; 1.; 0.; 0. |];
      [| 0.; 0.; 1.; 0. |];
      [| 0.; 0.; 0.; -1. |];
    |]

let swap =
  Mat.of_real_arrays
    [|
      [| 1.; 0.; 0.; 0. |];
      [| 0.; 0.; 1.; 0. |];
      [| 0.; 1.; 0.; 0. |];
      [| 0.; 0.; 0.; 1. |];
    |]

let iswap =
  Mat.of_arrays
    [|
      [| oc; zc; zc; zc |];
      [| zc; zc; Cx.i; zc |];
      [| zc; Cx.i; zc; zc |];
      [| zc; zc; zc; oc |];
    |]

let sqisw =
  let r = Cx.of_float (1.0 /. sqrt 2.0) in
  let ir = Cx.mk 0.0 (1.0 /. sqrt 2.0) in
  Mat.of_arrays
    [|
      [| oc; zc; zc; zc |];
      [| zc; r; ir; zc |];
      [| zc; ir; r; zc |];
      [| zc; zc; zc; oc |];
    |]

let can cx cy cz =
  let hgen =
    Mat.add
      (Mat.add (Mat.rsmul cx Pauli.xx) (Mat.rsmul cy Pauli.yy))
      (Mat.rsmul cz Pauli.zz)
  in
  Expm.herm_expi hgen ~t:1.0

let b_gate = can (Float.pi /. 4.0) (Float.pi /. 8.0) 0.0

let named_table =
  [ ("cnot", cnot); ("cz", cz); ("iswap", iswap); ("sqisw", sqisw); ("b", b_gate); ("swap", swap) ]

let named_2q = List.map fst named_table
let of_name name = List.assoc_opt name named_table

let cphase theta = Mat.of_arrays (Array.init 4 (fun i -> Array.init 4 (fun j -> if i <> j then zc else if i = 3 then Cx.expi theta else oc)))
let rzz theta = can 0.0 0.0 (theta /. 2.0)

let ccx =
  Mat.init 8 8 (fun i j ->
      let target i = if i < 6 then i else if i = 6 then 7 else 6 in
      if j = target i then oc else zc)

let cswap =
  Mat.init 8 8 (fun i j ->
      let target i = if i = 5 then 6 else if i = 6 then 5 else i in
      if j = target i then oc else zc)

(* Sparse embedding plan. [embed ~n ~qubits g] has 2^k structural
   nonzeros per row (k = gate arity): the columns that agree with the row
   outside the gate's wires. The plan lists them once, row-major with
   ascending columns, together with the index of the local entry of [g]
   that lands there, so the kernels below can apply [embed g] from either
   side without building it. *)
type plan = {
  dim : int;  (** 2^n *)
  sub : int;  (** 2^k *)
  spect : int;  (** 2^(n-k), the spectator index range *)
  cols : int array;  (** [cols.(r * sub + t)]: the t-th structural column of row r *)
  loc : int array;  (** [loc.(r * sub + t)]: flat index into [g]'s planes *)
  tr_idx : int array;  (** [tr_idx.(x * spect + s)]: full index of local x, spectator s *)
}

let build_plan ~n ~qubits =
  let qs = Array.of_list qubits in
  let k = Array.length qs in
  (* bit of qubit q inside an n-bit index (qubit 0 = MSB) *)
  let bit q = 1 lsl (n - 1 - q) in
  let mask =
    Array.fold_left
      (fun m q ->
        if q < 0 || q >= n then invalid_arg "Gates.embed: qubit out of range";
        if m land bit q <> 0 then invalid_arg "Gates.embed: repeated qubit";
        m lor bit q)
      0 qs
  in
  let dim = 1 lsl n and sub = 1 lsl k and spect = 1 lsl (n - k) in
  (* off.(x): the bits local index x sets, qs.(0) taking x's MSB *)
  let off =
    Array.init sub (fun x ->
        let v = ref 0 in
        Array.iteri (fun i q -> if (x lsr (k - 1 - i)) land 1 = 1 then v := !v lor bit q) qs;
        !v)
  in
  let local r =
    Array.fold_left (fun acc q -> (acc lsl 1) lor ((r lsr (n - 1 - q)) land 1)) 0 qs
  in
  (* local indices in ascending order of the columns they reach *)
  let order = Array.init sub Fun.id in
  Array.sort (fun x y -> compare off.(x) off.(y)) order;
  let cols = Array.make (dim * sub) 0 and loc = Array.make (dim * sub) 0 in
  for r = 0 to dim - 1 do
    let base = r land lnot mask and gr = local r in
    for t = 0 to sub - 1 do
      let gc = order.(t) in
      cols.((r * sub) + t) <- base lor off.(gc);
      loc.((r * sub) + t) <- (gr * sub) + gc
    done
  done;
  (* spectator s: its bit i sits at the i-th lowest bit off the gate *)
  let spread s =
    let v = ref 0 and i = ref 0 in
    for p = 0 to n - 1 do
      if mask land (1 lsl p) = 0 then begin
        if (s lsr !i) land 1 = 1 then v := !v lor (1 lsl p);
        incr i
      end
    done;
    !v
  in
  let tr_idx = Array.make (sub * spect) 0 in
  for s = 0 to spect - 1 do
    let sp = spread s in
    for x = 0 to sub - 1 do
      tr_idx.((x * spect) + s) <- sp lor off.(x)
    done
  done;
  { dim; sub; spect; cols; loc; tr_idx }

(* A qubit list on n <= 3 wires read as base-4 digits q + 1: every
   nonempty list of at most 3 wires gets its own code below 64. A list
   with a qubit off the wires, or longer than 3, gets 0, which no plan
   uses. *)
let rec plan_code n acc = function
  | [] -> acc
  | q :: rest ->
    if q < 0 || q >= n || acc >= 16 then 0 else plan_code n ((acc * 4) + q + 1) rest

(* The 20 plans of n <= 3 (every ordered list of distinct wires), built
   once and never written again, so every domain may read them. *)
let prebuilt =
  Array.init 4 (fun n ->
      let table = Array.make 64 None in
      let rec fill qubits =
        if qubits <> [] then
          table.(plan_code n 0 qubits) <- Some (build_plan ~n ~qubits);
        if List.length qubits < n then
          for q = 0 to n - 1 do
            if not (List.mem q qubits) then fill (qubits @ [ q ])
          done
      in
      fill [];
      table)

let plan ~n ~qubits =
  match if n >= 1 && n <= 3 then prebuilt.(n).(plan_code n 0 qubits) else None with
  | Some pl -> pl
  | None -> build_plan ~n ~qubits

let check_gate op pl g =
  if Mat.rows g <> pl.sub || Mat.cols g <> pl.sub then
    invalid_arg (Printf.sprintf "Gates.%s: gate size mismatch" op)

let check_dense op pl m =
  if Mat.rows m <> pl.dim || Mat.cols m <> pl.dim then
    invalid_arg (Printf.sprintf "Gates.%s: operand size mismatch" op)

let embed ~n ~qubits g =
  let pl = plan ~n ~qubits in
  check_gate "embed" pl g;
  let dst = Mat.create pl.dim pl.dim in
  let gre = Mat.re_plane g and gim = Mat.im_plane g in
  for e = 0 to Array.length pl.cols - 1 do
    let r = e / pl.sub and l = pl.loc.(e) in
    Mat.set_parts dst r pl.cols.(e) gre.(l) gim.(l)
  done;
  dst

(* The kernels add exactly the terms [Mat.mul_into] adds for the dense
   product, in the same ascending order of the inner index and with the
   same complex-multiply expression, minus the products with a structural
   zero of [embed g]. A dropped product of a finite entry is a signed zero,
   and a sum that starts at +0.0 never becomes -0.0, so adding it changes
   nothing: for finite operands every result is bit-identical to the dense
   product. *)

(* dst <- embed(g) · p. Like [Mat.mul_into], entries of the left factor
   that are exactly zero are skipped. *)
let apply_left_into pl ~dst g p =
  check_gate "apply_left_into" pl g;
  check_dense "apply_left_into" pl p;
  check_dense "apply_left_into" pl dst;
  if dst == p then invalid_arg "Gates.apply_left_into: dst aliases an input";
  let dim = pl.dim and sub = pl.sub and cols = pl.cols and loc = pl.loc in
  let gre = Mat.re_plane g and gim = Mat.im_plane g in
  let pre = Mat.re_plane p and pim = Mat.im_plane p in
  let ore = Mat.re_plane dst and oim = Mat.im_plane dst in
  Mat.zero_fill dst;
  for i = 0 to dim - 1 do
    let doff = i * dim in
    for t = 0 to sub - 1 do
      let e = (i * sub) + t in
      let l = Array.unsafe_get loc e in
      let ar = Array.unsafe_get gre l and ai = Array.unsafe_get gim l in
      if ar <> 0.0 || ai <> 0.0 then begin
        let poff = Array.unsafe_get cols e * dim in
        for j = 0 to dim - 1 do
          let br = Array.unsafe_get pre (poff + j) and bi = Array.unsafe_get pim (poff + j) in
          Array.unsafe_set ore (doff + j)
            (Array.unsafe_get ore (doff + j) +. ((ar *. br) -. (ai *. bi)));
          Array.unsafe_set oim (doff + j)
            (Array.unsafe_get oim (doff + j) +. ((ar *. bi) +. (ai *. br)))
        done
      end
    done
  done

(* dst <- a · embed(g). Like [Mat.mul_into], entries of [a] that are
   exactly zero are skipped. *)
let apply_right_into pl ~dst a g =
  check_gate "apply_right_into" pl g;
  check_dense "apply_right_into" pl a;
  check_dense "apply_right_into" pl dst;
  if dst == a then invalid_arg "Gates.apply_right_into: dst aliases an input";
  let dim = pl.dim and sub = pl.sub and cols = pl.cols and loc = pl.loc in
  let gre = Mat.re_plane g and gim = Mat.im_plane g in
  let are = Mat.re_plane a and aim = Mat.im_plane a in
  let ore = Mat.re_plane dst and oim = Mat.im_plane dst in
  Mat.zero_fill dst;
  for i = 0 to dim - 1 do
    let off = i * dim in
    for p = 0 to dim - 1 do
      let ar = Array.unsafe_get are (off + p) and ai = Array.unsafe_get aim (off + p) in
      if ar <> 0.0 || ai <> 0.0 then
        for t = 0 to sub - 1 do
          let e = (p * sub) + t in
          let l = Array.unsafe_get loc e and j = off + Array.unsafe_get cols e in
          let br = Array.unsafe_get gre l and bi = Array.unsafe_get gim l in
          Array.unsafe_set ore j (Array.unsafe_get ore j +. ((ar *. br) -. (ai *. bi)));
          Array.unsafe_set oim j (Array.unsafe_get oim j +. ((ar *. bi) +. (ai *. br)))
        done
    done
  done

(* dst[x][y] <- sum_s (a · b)[idx(x,s), idx(y,s)] over the spectators s in
   ascending order, each entry of a · b formed as [Mat.mul_into] forms it:
   the partial trace over the wires off the gate, reading only the
   dim · 2^k entries of the product it needs. *)
let partial_trace_mul_into pl ~dst a b =
  check_dense "partial_trace_mul_into" pl a;
  check_dense "partial_trace_mul_into" pl b;
  check_gate "partial_trace_mul_into" pl dst;
  if dst == a || dst == b then invalid_arg "Gates.partial_trace_mul_into: dst aliases an input";
  let dim = pl.dim and spect = pl.spect and tr_idx = pl.tr_idx in
  let are = Mat.re_plane a and aim = Mat.im_plane a in
  let bre = Mat.re_plane b and bim = Mat.im_plane b in
  for x = 0 to pl.sub - 1 do
    for y = 0 to pl.sub - 1 do
      let sr = ref 0.0 and si = ref 0.0 in
      for s = 0 to spect - 1 do
        let aoff = tr_idx.((x * spect) + s) * dim and c = tr_idx.((y * spect) + s) in
        let mr = ref 0.0 and mi = ref 0.0 in
        for p = 0 to dim - 1 do
          let ar = Array.unsafe_get are (aoff + p) and ai = Array.unsafe_get aim (aoff + p) in
          if ar <> 0.0 || ai <> 0.0 then begin
            let br = Array.unsafe_get bre ((p * dim) + c)
            and bi = Array.unsafe_get bim ((p * dim) + c) in
            mr := !mr +. ((ar *. br) -. (ai *. bi));
            mi := !mi +. ((ar *. bi) +. (ai *. br))
          end
        done;
        sr := !sr +. !mr;
        si := !si +. !mi
      done;
      Mat.set_parts dst x y !sr !si
    done
  done
