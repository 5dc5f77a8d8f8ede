(* Tests for the quantum gate zoo, Pauli strings, local factorization and
   Haar sampling. *)

open Numerics
open Quantum

let rng = Rng.create 7L

let check_mat ?(tol = 1e-9) msg expected actual =
  Alcotest.(check bool)
    (msg ^ " (dist " ^ string_of_float (Mat.frobenius_dist expected actual) ^ ")")
    true
    (Mat.equal ~tol expected actual)

(* ---------------------------------------------------------------- Pauli *)

let test_pauli_algebra () =
  let open Pauli in
  check_mat "X^2 = I" (Mat.identity 2) (Mat.mul (matrix_1q X) (matrix_1q X));
  check_mat "Y^2 = I" (Mat.identity 2) (Mat.mul (matrix_1q Y) (matrix_1q Y));
  check_mat "Z^2 = I" (Mat.identity 2) (Mat.mul (matrix_1q Z) (matrix_1q Z));
  (* XY = iZ *)
  check_mat "XY = iZ"
    (Mat.smul Cx.i (matrix_1q Z))
    (Mat.mul (matrix_1q X) (matrix_1q Y))

let test_pauli_string () =
  let s = Pauli.of_string "XIZ" in
  Alcotest.(check int) "weight" 2 (Pauli.weight s);
  Alcotest.(check (list int)) "support" [ 0; 2 ] (Pauli.support s);
  Alcotest.(check string) "roundtrip" "XIZ" (Pauli.to_string s);
  let m = Pauli.to_matrix s in
  Alcotest.(check int) "dim" 8 (Mat.rows m);
  check_mat "(XIZ)^2 = I" (Mat.identity 8) (Mat.mul m m)

let test_pauli_commutes () =
  let c a b = Pauli.commutes (Pauli.of_string a) (Pauli.of_string b) in
  Alcotest.(check bool) "XX vs ZZ commute" true (c "XX" "ZZ");
  Alcotest.(check bool) "XI vs ZI anticommute" false (c "XI" "ZI");
  Alcotest.(check bool) "XY vs YX commute" true (c "XY" "YX");
  Alcotest.(check bool) "XYZ vs ZZX anticommute" false (c "XYZ" "ZZX")

(* ---------------------------------------------------------------- Gates *)

let test_gate_identities () =
  let open Gates in
  check_mat "H^2 = I" (Mat.identity 2) (Mat.mul h h);
  check_mat "S^2 = Z" z (Mat.mul s s);
  check_mat "T^2 = S" s (Mat.mul t t);
  check_mat "HXH = Z" z (Mat.mul3 h x h);
  check_mat "CNOT^2 = I" (Mat.identity 4) (Mat.mul cnot cnot);
  check_mat "SWAP^2 = I" (Mat.identity 4) (Mat.mul swap swap);
  check_mat "SQiSW^2 = iSWAP" iswap (Mat.mul sqisw sqisw);
  (* CZ = (I x H) CNOT (I x H) *)
  let ih = Mat.kron (Mat.identity 2) h in
  check_mat "CZ from CNOT" cz (Mat.mul3 ih cnot ih)

let test_rotations () =
  let open Gates in
  check_mat "rx(2pi) = -I" (Mat.rsmul (-1.0) (Mat.identity 2)) (rx (2.0 *. Float.pi));
  check_mat "rz(pi) ~ Z" (Mat.smul (Cx.mk 0.0 (-1.0)) z) (rz Float.pi);
  (* u3 covers ry and rz *)
  check_mat "u3(t,0,0) = ry(t)" (ry 0.7) (u3 0.7 0.0 0.0);
  Alcotest.(check bool) "u3 unitary" true (Mat.is_unitary (u3 0.3 1.1 2.2))

let test_can_gate () =
  let open Gates in
  (* can(pi/4,0,0) is locally equivalent to CNOT: same magic spectrum *)
  Alcotest.(check bool) "can unitary" true (Mat.is_unitary (can 0.3 0.2 0.1));
  (* canonical gates commute among themselves *)
  let a = can 0.3 0.2 0.1 and b = can 0.15 0.12 0.05 in
  check_mat ~tol:1e-8 "canonical gates commute" (Mat.mul a b) (Mat.mul b a);
  check_mat ~tol:1e-8 "can additive" (can 0.45 0.32 0.15) (Mat.mul a b)

let test_embed () =
  let open Gates in
  (* embedding cnot on (0,1) of 2 qubits is cnot itself *)
  check_mat "embed id" cnot (embed ~n:2 ~qubits:[ 0; 1 ] cnot);
  (* embed x on qubit 1 of 2 = I (x) X *)
  check_mat "embed 1q" (Mat.kron (Mat.identity 2) x) (embed ~n:2 ~qubits:[ 1 ] x);
  (* reversed qubit order flips control/target *)
  let flipped = embed ~n:2 ~qubits:[ 1; 0 ] cnot in
  let hh = Mat.kron h h in
  check_mat "reversed cnot" (Mat.mul3 hh cnot hh) flipped;
  (* ccx embedded on 3 qubits in order equals the matrix *)
  check_mat "embed ccx" ccx (embed ~n:3 ~qubits:[ 0; 1; 2 ] ccx);
  (* embedding is multiplicative *)
  let u = Haar.su4 rng and v = Haar.su4 rng in
  let e m = embed ~n:3 ~qubits:[ 2; 0 ] m in
  check_mat ~tol:1e-8 "embed multiplicative" (e (Mat.mul u v)) (Mat.mul (e u) (e v))

(* ------------------------------------------------ sparse embedding plan *)

let same_bits a b =
  let f = Int64.bits_of_float in
  Mat.rows a = Mat.rows b
  && Mat.cols a = Mat.cols b
  && Array.for_all2 (fun x y -> f x = f y) (Mat.re_plane a) (Mat.re_plane b)
  && Array.for_all2 (fun x y -> f x = f y) (Mat.im_plane a) (Mat.im_plane b)

(* The dense environment the synthesis sweep computed before the plan
   existed, kept as the reference for [partial_trace_mul_into]: for M on
   [n] wires and a gate on [qs], E[i][j] = sum_s M[idx(j,s), idx(i,s)]. *)
let environment ~n m qs =
  let k = Array.length qs in
  let gate_pos = Array.map (fun q -> n - 1 - q) qs in
  let spect_pos =
    Array.of_list
      (List.filter
         (fun p -> not (Array.exists (fun gp -> gp = p) gate_pos))
         (List.init n (fun i -> i)))
  in
  let idx g s =
    let v = ref 0 in
    Array.iteri
      (fun pos p -> if (g lsr (k - 1 - pos)) land 1 = 1 then v := !v lor (1 lsl p))
      gate_pos;
    Array.iteri
      (fun pos p -> if (s lsr pos) land 1 = 1 then v := !v lor (1 lsl p))
      spect_pos;
    !v
  in
  let sub = 1 lsl k and spect = 1 lsl (n - k) in
  Mat.init sub sub (fun i j ->
      let acc = ref Cx.zero in
      for s = 0 to spect - 1 do
        acc := Cx.( +: ) !acc (Mat.get m (idx j s) (idx i s))
      done;
      !acc)

(* [Gates.embed] entry by entry, independent of the plan it is built on:
   rows and columns must agree off the gate's wires *)
let dense_embed ~n qs g =
  let bit idx q = (idx lsr (n - 1 - q)) land 1 in
  Mat.init (1 lsl n) (1 lsl n) (fun row col ->
      if List.exists (fun q -> (not (List.mem q qs)) && bit row q <> bit col q) (List.init n Fun.id)
      then Cx.zero
      else begin
        let local idx = List.fold_left (fun acc q -> (acc lsl 1) lor bit idx q) 0 qs in
        Mat.get g (local row) (local col)
      end)

(* a dense operand whose entries include exact zeros, zero real or
   imaginary parts and negative zeros *)
let dense_with_zeros r dim =
  Mat.init dim dim (fun i j ->
      match ((i * dim) + j) mod 7 with
      | 0 -> Cx.zero
      | 1 -> Cx.mk 0.0 (Rng.gaussian r)
      | 2 -> Cx.mk (Rng.gaussian r) (-0.0)
      | 3 -> Cx.mk (-0.0) 0.0
      | _ -> Cx.mk (Rng.gaussian r) (Rng.gaussian r))

let test_plan_kernels () =
  let r = Rng.create 20261017L in
  let cases =
    List.concat_map
      (fun n ->
        let wires = List.init n Fun.id in
        let one = List.map (fun q -> ([ q ], Haar.su2 r)) wires in
        let two =
          List.concat_map
            (fun a ->
              List.filter_map
                (fun b -> if a = b then None else Some ([ a; b ], Haar.su4 r))
                wires)
            wires
        in
        let three =
          if n < 3 then []
          else
            [
              ([ 0; 1; 2 ], Gates.ccx);
              ([ n - 1; 0; 1 ], Haar.unitary r 8);
              ([ 1; n - 1; 0 ], Gates.ccx);
            ]
        in
        (* with [three], every order of three wires: each prebuilt plan of
           n <= 3 is checked *)
        let orders3 =
          if n <> 3 then []
          else List.map (fun qs -> (qs, Haar.unitary r 8)) [ [ 0; 2; 1 ]; [ 1; 0; 2 ]; [ 2; 1; 0 ] ]
        in
        let cx20 = Gate.cx 2 0 in
        let zeros =
          (if n >= 3 then [ (Array.to_list cx20.Gate.qubits, cx20.Gate.mat) ] else [])
          @ if n >= 2 then [ ([ 1; 0 ], Gates.cnot); ([ 0; 1 ], Gates.cnot) ] else []
        in
        List.map (fun (qs, g) -> (n, qs, g)) (one @ two @ three @ orders3 @ zeros))
      [ 1; 2; 3; 4 ]
  in
  List.iter
    (fun (n, qs, g) ->
      let what =
        Printf.sprintf "n=%d on [%s]" n (String.concat ";" (List.map string_of_int qs))
      in
      let dim = 1 lsl n and sub = Mat.rows g in
      let pl = Gates.plan ~n ~qubits:qs in
      let e = Gates.embed ~n ~qubits:qs g in
      Alcotest.(check bool) ("embed " ^ what) true (same_bits (dense_embed ~n qs g) e);
      let a = dense_with_zeros r dim and b = dense_with_zeros r dim in
      let expect = Mat.create dim dim and got = Mat.create dim dim in
      Mat.mul_into ~dst:expect e a;
      Gates.apply_left_into pl ~dst:got g a;
      Alcotest.(check bool) ("left action " ^ what) true (same_bits expect got);
      Mat.mul_into ~dst:expect a e;
      Gates.apply_right_into pl ~dst:got a g;
      Alcotest.(check bool) ("right action " ^ what) true (same_bits expect got);
      let env = Mat.create sub sub in
      Gates.partial_trace_mul_into pl ~dst:env a b;
      let reference =
        Mat.transpose (environment ~n (Mat.mul a b) (Array.of_list qs))
      in
      Alcotest.(check bool) ("partial trace " ^ what) true (same_bits reference env))
    cases

let test_plan_rejects () =
  let raises what f =
    Alcotest.(check bool) what true
      (match f () with _ -> false | exception Invalid_argument _ -> true)
  in
  raises "qubit out of range" (fun () -> Gates.plan ~n:2 ~qubits:[ 2 ]);
  raises "repeated qubit" (fun () -> Gates.plan ~n:3 ~qubits:[ 1; 1 ]);
  raises "too many qubits" (fun () -> Gates.plan ~n:3 ~qubits:[ 0; 1; 2; 0 ]);
  raises "negative qubit" (fun () -> Gates.plan ~n:1 ~qubits:[ -1 ]);
  let pl = Gates.plan ~n:2 ~qubits:[ 0 ] in
  let m = Mat.identity 4 in
  raises "gate size" (fun () -> Gates.apply_left_into pl ~dst:(Mat.create 4 4) Gates.cnot m);
  raises "aliased dst" (fun () -> Gates.apply_right_into pl ~dst:m m Gates.x)

(* ---------------------------------------------------------------- Local *)

let test_local_factor () =
  let a = Haar.su2 rng and b = Haar.su2 rng in
  let m = Mat.kron a b in
  match Local.factor m with
  | None -> Alcotest.fail "factor failed on a tensor product"
  | Some (a', b') -> check_mat ~tol:1e-9 "kron reassembles" m (Mat.kron a' b')

let test_local_factor_with_phase () =
  let a = Haar.su2 rng and b = Haar.su2 rng in
  let m = Mat.smul (Cx.expi 0.987) (Mat.kron a b) in
  match Local.factor m with
  | None -> Alcotest.fail "factor failed with phase"
  | Some (a', b') -> check_mat ~tol:1e-9 "kron reassembles" m (Mat.kron a' b')

let test_local_rejects_entangling () =
  Alcotest.(check bool) "cnot not local" false (Local.is_local Gates.cnot);
  Alcotest.(check bool) "iswap not local" false (Local.is_local Gates.iswap);
  Alcotest.(check bool) "swap not local" false (Local.is_local Gates.swap)

(* ----------------------------------------------------------------- Haar *)

let test_haar_unitary () =
  for _ = 1 to 5 do
    let u = Haar.unitary rng 4 in
    Alcotest.(check bool) "unitary" true (Mat.is_unitary ~tol:1e-9 u)
  done;
  let u = Haar.su4 rng in
  Alcotest.(check bool) "su4 det 1" true (Cx.close ~tol:1e-8 (Mat.det u) Cx.one)

let test_haar_spread () =
  (* entries should average to ~0; crude sanity that sampling is not stuck *)
  let n = 200 in
  let acc = ref Cx.zero in
  for _ = 1 to n do
    let u = Haar.unitary rng 2 in
    acc := Cx.( +: ) !acc (Mat.get u 0 0)
  done;
  Alcotest.(check bool) "mean entry small" true (Cx.norm !acc /. float_of_int n < 0.15)

(* ------------------------------------------------------------- Fidelity *)

let test_fidelity () =
  let u = Haar.su4 rng in
  Alcotest.(check (float 1e-9)) "self fidelity" 1.0 (Fidelity.trace_fidelity u u);
  Alcotest.(check (float 1e-9)) "phase invariant" 1.0
    (Fidelity.trace_fidelity u (Mat.smul (Cx.expi 0.5) u));
  let v = Haar.su4 rng in
  let f = Fidelity.trace_fidelity u v in
  Alcotest.(check bool) "fidelity in [0,1]" true (f >= 0.0 && f <= 1.0);
  Alcotest.(check bool) "agf in [0,1]" true
    (let g = Fidelity.average_gate_fidelity u v in
     g >= 0.0 && g <= 1.0)

let qcheck_tests =
  let seed_gen = QCheck.Gen.(map Int64.of_int (int_bound 1000000)) in
  let arb_seed = QCheck.make seed_gen in
  [
    QCheck.Test.make ~count:40 ~name:"haar su4 is unitary with det 1" arb_seed
      (fun seed ->
        let u = Haar.su4 (Rng.create seed) in
        Mat.is_unitary ~tol:1e-8 u && Cx.close ~tol:1e-7 (Mat.det u) Cx.one);
    QCheck.Test.make ~count:40 ~name:"local factor roundtrips" arb_seed (fun seed ->
        let r = Rng.create seed in
        let m = Mat.kron (Haar.su2 r) (Haar.su2 r) in
        match Local.factor m with
        | None -> false
        | Some (a, b) -> Mat.equal ~tol:1e-8 (Mat.kron a b) m);
    QCheck.Test.make ~count:40 ~name:"pauli strings square to identity"
      QCheck.(make Gen.(list_size (int_range 1 4) (int_bound 3)))
      (fun ops ->
        let s = Array.of_list (List.map (fun i -> [| Pauli.I; Pauli.X; Pauli.Y; Pauli.Z |].(i)) ops) in
        let m = Pauli.to_matrix s in
        Mat.equal ~tol:1e-9 (Mat.mul m m) (Mat.identity (Mat.rows m)));
  ]

let () =
  Alcotest.run "quantum"
    [
      ( "pauli",
        [
          Alcotest.test_case "algebra" `Quick test_pauli_algebra;
          Alcotest.test_case "strings" `Quick test_pauli_string;
          Alcotest.test_case "commutation" `Quick test_pauli_commutes;
        ] );
      ( "gates",
        [
          Alcotest.test_case "identities" `Quick test_gate_identities;
          Alcotest.test_case "rotations" `Quick test_rotations;
          Alcotest.test_case "canonical gate" `Quick test_can_gate;
          Alcotest.test_case "embed" `Quick test_embed;
          Alcotest.test_case "plan kernels match dense products" `Quick test_plan_kernels;
          Alcotest.test_case "plan rejects bad input" `Quick test_plan_rejects;
        ] );
      ( "local",
        [
          Alcotest.test_case "factor" `Quick test_local_factor;
          Alcotest.test_case "factor with phase" `Quick test_local_factor_with_phase;
          Alcotest.test_case "rejects entangling" `Quick test_local_rejects_entangling;
        ] );
      ( "haar",
        [
          Alcotest.test_case "unitary" `Quick test_haar_unitary;
          Alcotest.test_case "spread" `Quick test_haar_spread;
        ] );
      ("fidelity", [ Alcotest.test_case "basic" `Quick test_fidelity ]);
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
