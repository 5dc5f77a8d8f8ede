(* Additional coverage: algebraic edge cases, pass idempotence, semantic
   safety of reordering optimizations, and negative paths. *)

open Numerics

let rng = Rng.create 31337L

let check_phase ?(tol = 1e-7) msg expected actual =
  Alcotest.(check bool)
    (msg ^ " (phase dist " ^ string_of_float (Mat.phase_dist expected actual) ^ ")")
    true
    (Mat.allclose_up_to_phase ~tol expected actual)

(* --------------------------------------------------------------- numerics *)

let test_bisect_requires_sign_change () =
  Alcotest.check_raises "no sign change"
    (Invalid_argument "Roots.bisect: no sign change") (fun () ->
      ignore (Roots.bisect (fun x -> (x *. x) +. 1.0) 0.0 1.0))

let test_inv_singular () =
  let m = Mat.of_real_arrays [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] in
  match Mat.inv m with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "inverted a singular matrix"

let test_kron_associative () =
  let a = Quantum.Haar.su2 rng and b = Quantum.Haar.su2 rng and c = Quantum.Haar.su2 rng in
  Alcotest.(check bool) "assoc" true
    (Mat.equal ~tol:1e-10 (Mat.kron (Mat.kron a b) c) (Mat.kron a (Mat.kron b c)))

let test_mul_list () =
  let ms = List.init 4 (fun _ -> Quantum.Haar.su2 rng) in
  let lhs = Mat.mul_list ms in
  let rhs = List.fold_left Mat.mul (Mat.identity 2) ms in
  Alcotest.(check bool) "fold equivalence" true (Mat.equal ~tol:1e-10 lhs rhs)

let test_rng_uniform_bounds () =
  let r = Rng.create 5L in
  for _ = 1 to 1000 do
    let v = Rng.uniform r ~lo:(-2.0) ~hi:3.0 in
    Alcotest.(check bool) "in range" true (v >= -2.0 && v < 3.0)
  done

(* ------------------------------------------------------------------ weyl *)

let test_coords_deterministic () =
  let u = Quantum.Haar.su4 rng in
  let a = Weyl.Kak.coords_of u and b = Weyl.Kak.coords_of u in
  Alcotest.(check bool) "same coords" true (Weyl.Coords.equal ~tol:1e-12 a b)

let test_not_locally_equivalent () =
  Alcotest.(check bool) "cnot vs swap" false
    (Weyl.Kak.locally_equivalent Quantum.Gates.cnot Quantum.Gates.swap);
  Alcotest.(check bool) "cnot vs iswap" false
    (Weyl.Kak.locally_equivalent Quantum.Gates.cnot Quantum.Gates.iswap)

let test_canonical_of_named_coords () =
  (* canonical c reproduces the class for every named point *)
  List.iter
    (fun (name, c) ->
      let got = Weyl.Kak.coords_of (Weyl.Kak.canonical c) in
      Alcotest.(check bool) name true (Weyl.Coords.dist got c < 1e-9))
    [
      ("cnot", Weyl.Coords.cnot);
      ("iswap", Weyl.Coords.iswap);
      ("swap", Weyl.Coords.swap);
      ("sqisw", Weyl.Coords.sqisw);
      ("b", Weyl.Coords.b_gate);
    ]

let test_mirror_threshold_boundary () =
  let c = Weyl.Coords.make 0.1 0.05 0.05 in
  Alcotest.(check bool) "inside r=0.2" true (Weyl.Coords.is_near_identity ~r:0.2 c);
  Alcotest.(check bool) "outside r=0.1" false (Weyl.Coords.is_near_identity ~r:0.1 c)

(* ---------------------------------------------------------------- phoenix *)

let random_pauli_program r n terms =
  let ops = Quantum.Pauli.[| I; X; Y; Z |] in
  Compiler.Phoenix.
    {
      n;
      terms =
        List.init terms (fun _ ->
            let s = Array.init n (fun _ -> ops.(Rng.int r 4)) in
            (* ensure nonzero weight *)
            if Quantum.Pauli.weight s = 0 then s.(Rng.int r n) <- Quantum.Pauli.Z;
            { pauli = s; angle = Rng.uniform r ~lo:0.1 ~hi:1.0 });
    }

let test_reorder_preserves_semantics () =
  for k = 1 to 5 do
    let r = Rng.create (Int64.of_int (100 + k)) in
    let p = random_pauli_program r 3 6 in
    let before = Circuit.unitary (Compiler.Phoenix.to_cx_circuit p) in
    let after = Circuit.unitary (Compiler.Phoenix.to_cx_circuit (Compiler.Phoenix.reorder p)) in
    check_phase (Printf.sprintf "reorder %d" k) before after
  done

let test_simplify_preserves_semantics () =
  let r = Rng.create 200L in
  let p = random_pauli_program r 3 5 in
  (* duplicate a term adjacently so simplify has something to merge *)
  let p =
    match p.Compiler.Phoenix.terms with
    | t :: rest -> { p with Compiler.Phoenix.terms = t :: t :: rest }
    | [] -> p
  in
  let before = Circuit.unitary (Compiler.Phoenix.to_cx_circuit p) in
  let after = Circuit.unitary (Compiler.Phoenix.to_cx_circuit (Compiler.Phoenix.simplify p)) in
  check_phase "simplify" before after

let test_su4_lowering_matches_cx () =
  for k = 1 to 4 do
    let r = Rng.create (Int64.of_int (300 + k)) in
    let p = random_pauli_program r 4 4 in
    let cx = Circuit.unitary (Compiler.Phoenix.to_cx_circuit p) in
    let su = Circuit.unitary (Compiler.Phoenix.to_su4_circuit p) in
    check_phase (Printf.sprintf "program %d" k) cx su
  done

(* --------------------------------------------------------------- baselines *)

let test_qiskit_like_idempotent () =
  let r = Rng.create 400L in
  let gates =
    List.init 14 (fun _ ->
        let a = Rng.int r 4 in
        let b = (a + 1 + Rng.int r 3) mod 4 in
        if Rng.bool r then Gate.cx a b else Gate.t a)
  in
  let c = Circuit.create 4 gates in
  let once = Compiler.Baselines.qiskit_like c in
  let twice = Compiler.Baselines.qiskit_like once in
  Alcotest.(check int) "no further reduction" (Circuit.count_2q once)
    (Circuit.count_2q twice);
  check_phase "still equivalent" (Circuit.unitary c) (Circuit.unitary twice)

let test_swap_costs_three_cnots () =
  let c = Circuit.create 2 [ Gate.swap 0 1 ] in
  let low = Decomp.lower_to_cx c in
  Alcotest.(check int) "3 cnots" 3 (Circuit.count_2q low);
  check_phase "swap preserved" Quantum.Gates.swap (Circuit.unitary low)

(* ---------------------------------------------------------------- routing *)

let test_route_rejects_too_wide () =
  let c = Circuit.create 5 [ Gate.cx 0 4 ] in
  let topo = Compiler.Routing.chain 3 in
  Alcotest.check_raises "too wide"
    (Invalid_argument "Routing.route: circuit wider than device") (fun () ->
      ignore (Compiler.Routing.route topo c))

let test_route_pads_narrow_circuits () =
  let c = Circuit.create 2 [ Gate.cx 0 1 ] in
  let topo = Compiler.Routing.chain 5 in
  let r = Compiler.Routing.route topo c in
  Alcotest.(check int) "width = device" 5 r.Compiler.Routing.circuit.Circuit.n;
  Alcotest.(check int) "one gate" 1 (Circuit.count_2q r.Compiler.Routing.circuit)

let test_topology_distances () =
  let g = Compiler.Routing.grid ~rows:2 ~cols:3 in
  Alcotest.(check int) "corner to corner" 3 g.Compiler.Routing.dist.(0).(5);
  Alcotest.(check int) "adjacent" 1 g.Compiler.Routing.dist.(0).(1);
  let ch = Compiler.Routing.chain 6 in
  Alcotest.(check int) "chain ends" 5 ch.Compiler.Routing.dist.(0).(5)

(* ----------------------------------------------------------------- misc *)

let test_variational_cnot_basis () =
  let u = Quantum.Gates.iswap in
  let c = Circuit.create 2 [ Gate.su4 0 1 u ] in
  let out = Compiler.Variational.rewrite ~basis:Microarch.Duration.Cnot rng c in
  check_phase ~tol:1e-4 "iswap via 2 cnots" u (Circuit.unitary out);
  Alcotest.(check int) "2 cnots" 2 (Circuit.count_2q out)

let test_distinct_after_variational_mixed () =
  let r = Rng.create 500L in
  let c =
    Circuit.create 2
      [ Gate.su4 0 1 (Quantum.Haar.su4 r); Gate.su4 0 1 (Quantum.Haar.su4 r) ]
  in
  let out = Compiler.Variational.rewrite ~basis:Microarch.Duration.B rng c in
  Alcotest.(check int) "single class" 1 (Circuit.distinct_2q out)

let test_schedule_error_on_near_identity () =
  (* an unmirrored near-identity gate must be reported, not silently wrong *)
  let xy = Microarch.Coupling.xy ~g:1.0 in
  let c = Circuit.create 2 [ Gate.can 0 1 0.001 0.0005 0.0 ] in
  match Microarch.Schedule.schedule xy c with
  | Error _ -> ()
  | Ok s ->
    (* if the solver managed it, the makespan must still be the optimal tau *)
    Alcotest.(check bool) "tau optimal" true (s.Microarch.Schedule.makespan > 0.0)

let () =
  Alcotest.run "more"
    [
      ( "numerics",
        [
          Alcotest.test_case "bisect guard" `Quick test_bisect_requires_sign_change;
          Alcotest.test_case "singular inverse" `Quick test_inv_singular;
          Alcotest.test_case "kron associative" `Quick test_kron_associative;
          Alcotest.test_case "mul_list" `Quick test_mul_list;
          Alcotest.test_case "uniform bounds" `Quick test_rng_uniform_bounds;
        ] );
      ( "weyl",
        [
          Alcotest.test_case "deterministic" `Quick test_coords_deterministic;
          Alcotest.test_case "not equivalent" `Quick test_not_locally_equivalent;
          Alcotest.test_case "canonical named" `Quick test_canonical_of_named_coords;
          Alcotest.test_case "mirror threshold" `Quick test_mirror_threshold_boundary;
        ] );
      ( "phoenix",
        [
          Alcotest.test_case "reorder safe" `Quick test_reorder_preserves_semantics;
          Alcotest.test_case "simplify safe" `Quick test_simplify_preserves_semantics;
          Alcotest.test_case "su4 = cx lowering" `Quick test_su4_lowering_matches_cx;
        ] );
      ( "baselines",
        [
          Alcotest.test_case "idempotent" `Quick test_qiskit_like_idempotent;
          Alcotest.test_case "swap cost" `Quick test_swap_costs_three_cnots;
        ] );
      ( "routing",
        [
          Alcotest.test_case "too wide" `Quick test_route_rejects_too_wide;
          Alcotest.test_case "pads" `Quick test_route_pads_narrow_circuits;
          Alcotest.test_case "distances" `Quick test_topology_distances;
        ] );
      ( "misc",
        [
          Alcotest.test_case "variational cnot" `Slow test_variational_cnot_basis;
          Alcotest.test_case "variational distinct" `Slow test_distinct_after_variational_mixed;
          Alcotest.test_case "schedule near-identity" `Quick test_schedule_error_on_near_identity;
        ] );
    ]
