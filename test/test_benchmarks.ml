(* Tests for the benchmark generators: structural sanity of every category
   plus functional correctness of the arithmetic circuits. *)

open Numerics

let suite = Benchmarks.Suite.suite ()

let test_suite_covers_categories () =
  let have = List.map fst (Benchmarks.Suite.by_category suite) in
  List.iter
    (fun c ->
      Alcotest.(check bool) (Printf.sprintf "category %s present" c) true (List.mem c have))
    Benchmarks.Suite.categories

let test_all_programs_valid () =
  List.iter
    (fun (b : Benchmarks.Suite.bench) ->
      let c = Compiler.Pass.program_to_cnot_input b.program in
      Alcotest.(check bool) (b.name ^ " nonempty") true (Circuit.count_2q c > 0);
      Alcotest.(check bool) (b.name ^ " lowered to cx+1q") true
        (List.for_all
           (fun (g : Gate.t) -> Gate.arity g = 1 || g.Gate.label = "cx")
           c.Circuit.gates))
    suite

let test_table1_consistency () =
  List.iter
    (fun ((cat : string), (s : Benchmarks.Suite.stats)) ->
      Alcotest.(check bool) (cat ^ " ranges ordered") true
        (s.qubit_lo <= s.qubit_hi && s.twoq_lo <= s.twoq_hi && s.dur_lo <= s.dur_hi);
      Alcotest.(check bool) (cat ^ " counted") true (s.count >= 1))
    (Benchmarks.Suite.table1 suite)

(* functional correctness of the ripple-carry adder: measure a+b *)
let test_ripple_add_functional () =
  let k = 3 in
  let c = Benchmarks.Generators.ripple_add k in
  let n = c.Circuit.n in
  (* wires: [c0; b0; a0; b1; a1; b2; a2; z]; result a+b lands in b, carry z *)
  let encode a b =
    (* basis index with qubit 0 = MSB of the index *)
    let bits = Array.make n 0 in
    for i = 0 to k - 1 do
      bits.(1 + (2 * i)) <- (b lsr i) land 1;
      bits.(2 + (2 * i)) <- (a lsr i) land 1
    done;
    Array.fold_left (fun acc bit -> (acc lsl 1) lor bit) 0 bits
  in
  let decode idx =
    let bit w = (idx lsr (n - 1 - w)) land 1 in
    let sum = ref 0 in
    for i = 0 to k - 1 do
      sum := !sum lor (bit (1 + (2 * i)) lsl i)
    done;
    !sum lor (bit (n - 1) lsl k)
  in
  List.iter
    (fun (a, b) ->
      let input = encode a b in
      let st = Array.make (1 lsl n) Cx.zero in
      st.(input) <- Cx.one;
      let out = State.run_from ~n c.Circuit.gates st in
      (* find the single basis state with amplitude 1 *)
      let winner = ref (-1) in
      Array.iteri (fun i v -> if Cx.norm v > 0.9 then winner := i) out;
      Alcotest.(check int)
        (Printf.sprintf "adder %d + %d" a b)
        (a + b) (decode !winner))
    [ (0, 0); (1, 0); (3, 5); (7, 7); (6, 3); (2, 5) ]

let test_tof_is_reversible_permutation () =
  let c = Benchmarks.Generators.tof 5 in
  let u = Circuit.unitary c in
  (* permutation matrix: all entries 0/1 *)
  let ok = ref true in
  for i = 0 to Mat.rows u - 1 do
    for j = 0 to Mat.cols u - 1 do
      let v = Cx.norm (Mat.get u i j) in
      if v > 1e-9 && Float.abs (v -. 1.0) > 1e-9 then ok := false
    done
  done;
  Alcotest.(check bool) "permutation" true !ok

let test_grover_amplifies () =
  (* 3 data qubits + ancilla: the marked state |111> gains probability *)
  let c = Benchmarks.Generators.grover ~data:3 ~iters:1 in
  let st = State.run ~n:c.Circuit.n c.Circuit.gates in
  let probs = State.probabilities st in
  (* marginal over data qubits: sum over ancilla states of |111 ...> *)
  let n = c.Circuit.n in
  let marked = ref 0.0 and uniform = ref 0.0 in
  Array.iteri
    (fun i p ->
      let data_bits = i lsr (n - 3) in
      if data_bits = 7 then marked := !marked +. p
      else if data_bits = 0 then uniform := !uniform +. p)
    probs;
  Alcotest.(check bool)
    (Printf.sprintf "amplified (%.3f vs %.3f)" !marked !uniform)
    true
    (!marked > 4.0 *. !uniform)

let test_qft_matrix () =
  let nq = 3 in
  let c = Benchmarks.Generators.qft nq in
  let u = Circuit.unitary c in
  let dim = 1 lsl nq in
  (* QFT without the final bit-reversal swaps: rows appear bit-reversed *)
  let rev i =
    let r = ref 0 in
    for b = 0 to nq - 1 do
      if (i lsr b) land 1 = 1 then r := !r lor (1 lsl (nq - 1 - b))
    done;
    !r
  in
  let expected =
    Mat.init dim dim (fun i j ->
        Cx.scale
          (1.0 /. sqrt (float_of_int dim))
          (Cx.expi (2.0 *. Float.pi *. float_of_int (rev i * j) /. float_of_int dim)))
  in
  Alcotest.(check bool)
    (Printf.sprintf "qft matrix (dist %.2g)" (Mat.phase_dist expected u))
    true
    (Mat.allclose_up_to_phase ~tol:1e-7 expected u)

let test_pauli_programs_hermitian_strings () =
  List.iter
    (fun (b : Benchmarks.Suite.bench) ->
      match b.program with
      | Compiler.Pass.Pauli p ->
        List.iter
          (fun (t : Compiler.Phoenix.term) ->
            Alcotest.(check bool) (b.name ^ " nonzero weight") true
              (Quantum.Pauli.weight t.pauli > 0);
            Alcotest.(check int) (b.name ^ " string width") p.Compiler.Phoenix.n
              (Array.length t.pauli))
          p.Compiler.Phoenix.terms
      | _ -> ())
    suite

let test_qaoa_structure () =
  let p = Benchmarks.Generators.qaoa ~seed:1 8 ~layers:2 in
  let zz, x =
    List.partition
      (fun (t : Compiler.Phoenix.term) -> Quantum.Pauli.weight t.pauli = 2)
      p.Compiler.Phoenix.terms
  in
  Alcotest.(check bool) "has zz terms" true (List.length zz >= 16);
  Alcotest.(check int) "x mixers per layer" 16 (List.length x);
  List.iter
    (fun (t : Compiler.Phoenix.term) ->
      Array.iter
        (fun op ->
          Alcotest.(check bool) "zz ops" true
            (op = Quantum.Pauli.I || op = Quantum.Pauli.Z))
        t.pauli)
    zz

let test_determinism () =
  let a = Benchmarks.Generators.hwb ~seed:5 6 ~gates:40 in
  let b = Benchmarks.Generators.hwb ~seed:5 6 ~gates:40 in
  Alcotest.(check bool) "same circuit" true
    (List.for_all2
       (fun (x : Gate.t) (y : Gate.t) -> x.label = y.label && x.qubits = y.qubits)
       a.Circuit.gates b.Circuit.gates)

let () =
  Alcotest.run "benchmarks"
    [
      ( "suite",
        [
          Alcotest.test_case "categories" `Quick test_suite_covers_categories;
          Alcotest.test_case "programs valid" `Quick test_all_programs_valid;
          Alcotest.test_case "table1" `Quick test_table1_consistency;
        ] );
      ( "functional",
        [
          Alcotest.test_case "ripple add" `Quick test_ripple_add_functional;
          Alcotest.test_case "tof permutation" `Quick test_tof_is_reversible_permutation;
          Alcotest.test_case "grover amplifies" `Quick test_grover_amplifies;
          Alcotest.test_case "qft matrix" `Quick test_qft_matrix;
        ] );
      ( "pauli",
        [
          Alcotest.test_case "strings valid" `Quick test_pauli_programs_hermitian_strings;
          Alcotest.test_case "qaoa structure" `Quick test_qaoa_structure;
        ] );
      ("determinism", [ Alcotest.test_case "hwb" `Quick test_determinism ]);
    ]
