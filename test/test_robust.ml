(* Robustness layer: typed errors, budgets, fault injection, retry ladders.

   Covers the adversarial-input contract (the solver/compiler pipeline
   always returns Solved/Degraded/Failed — never an uncaught exception) and
   asserts that injected faults actually drive every recovery branch:
   retry (EA + ND ladders), fallback (hierarchical resynthesis), degraded
   outcomes, hard failure, and budget exhaustion. *)

open Numerics

let disarm () = Robust.Fault.configure None

(* every fault test must leave the process disarmed for its neighbours *)
let with_faults spec f =
  Robust.Fault.configure (Some spec);
  Fun.protect ~finally:disarm f

let xy = Microarch.Coupling.xy ~g:1.0

(* a Weyl chamber point whose optimal-time plan uses an EA subscheme under
   the XY coupling, so the retry ladder (not the sinc search) is exercised *)
let ea_coords =
  let candidates =
    [ (0.5, 0.3, 0.1); (0.7, 0.2, 0.1); (0.6, 0.5, 0.4); (0.3, 0.2, 0.1);
      (0.75, 0.4, 0.0) ]
  in
  let is_ea (x, y, z) =
    let c = Weyl.Coords.make x y z in
    match (Microarch.Tau.plan xy c).Microarch.Tau.subscheme with
    | Microarch.Tau.EA_same | Microarch.Tau.EA_opposite -> true
    | Microarch.Tau.ND -> false
  in
  match List.find_opt is_ea candidates with
  | Some (x, y, z) -> Weyl.Coords.make x y z
  | None -> Alcotest.fail "no EA-subscheme candidate coords under XY coupling"

let cnot_coords = Weyl.Coords.make (Float.pi /. 4.0) 0.0 0.0

let outcome_kind o = Robust.Outcome.kind o

(* tiny substring helper so the tests need no extra string library *)
let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* ------------------------------------------------------------- err/core *)

let test_err_taxonomy () =
  let e =
    Robust.Err.Non_convergence
      { stage = "solver.ea"; target = Some (0.1, 0.2, 0.3); iterations = 42; residual = 1e-3 }
  in
  Alcotest.(check string) "stage" "solver.ea" (Robust.Err.stage e);
  Alcotest.(check string) "kind" "non_convergence" (Robust.Err.kind e);
  Alcotest.(check int) "exit code" 4 (Robust.Err.exit_code e);
  let s = Robust.Err.to_string e in
  Alcotest.(check bool) "message mentions stage" true
    (String.length s > 0 && contains s "solver.ea")

let test_counters () =
  Robust.Counters.reset ();
  Robust.Counters.incr ~stage:"t" "ok";
  Robust.Counters.incr ~stage:"t" "ok";
  Robust.Counters.add ~stage:"t" "retry" 3;
  Alcotest.(check int) "incr" 2 (Robust.Counters.get ~stage:"t" "ok");
  Alcotest.(check int) "add" 3 (Robust.Counters.get ~stage:"t" "retry");
  Robust.Counters.set_gauge ~stage:"t" "g" 2.5;
  Robust.Counters.set_gauge ~stage:"t" "g" 4.5;
  Alcotest.(check bool) "gauge last write wins" true
    (Robust.Counters.get_gauge ~stage:"t" "g" = Some 4.5);
  Alcotest.(check bool) "gauges listing" true
    (Robust.Counters.gauges () = [ ("t", "g", 4.5) ]);
  (* non-ASCII and control bytes in a key come back byte for byte
     through the JSON writer and parser *)
  let stage = "caf\xc3\xa9\001" and name = "n\xe2\x82\xac\001\"" in
  Robust.Counters.add ~stage name 7;
  let expected =
    Robust.Json.(
      Obj
        [
          (stage, Obj [ (name, Num 7.0) ]);
          ("t", Obj [ ("ok", Num 2.0); ("retry", Num 3.0) ]);
        ])
  in
  Alcotest.(check bool) "json round trip" true
    (Robust.Json.(parse (to_string (Robust.Counters.to_json ()))) = Ok expected);
  Robust.Counters.reset ();
  Alcotest.(check int) "reset" 0 (Robust.Counters.get ~stage:"t" "ok");
  Alcotest.(check bool) "reset clears gauges" true
    (Robust.Counters.get_gauge ~stage:"t" "g" = None && Robust.Counters.gauges () = [])

let test_budget () =
  let b = Robust.Budget.make ~max_iterations:10 ~max_seconds:1e9 () in
  Robust.Budget.spend b 5;
  Alcotest.(check int) "iterations" 5 (Robust.Budget.iterations b);
  Alcotest.(check bool) "not exceeded" false (Robust.Budget.exceeded b);
  Robust.Budget.spend b 6;
  Alcotest.(check bool) "exceeded" true (Robust.Budget.exceeded b);
  match Robust.Budget.check b ~stage:"s" ~residual:0.5 with
  | Error (Robust.Err.Budget_exceeded { stage; iterations; residual; _ }) ->
    Alcotest.(check string) "stage" "s" stage;
    Alcotest.(check int) "spent" 11 iterations;
    Alcotest.(check (float 0.0)) "residual" 0.5 residual
  | _ -> Alcotest.fail "expected Budget_exceeded"

(* a zero-second budget is spent the moment it starts, even when the
   clock has not ticked since [make] *)
let test_budget_zero_seconds () =
  let b = Robust.Budget.make ~max_seconds:0.0 () in
  Alcotest.(check bool) "exceeded at once" true (Robust.Budget.exceeded b)

let test_outcome () =
  let open Robust.Outcome in
  Alcotest.(check string) "ok kind" "ok" (kind (Solved 1));
  let d = Degraded (2, { residual = 1e-4; retries = 1; note = "n" }) in
  Alcotest.(check string) "degraded kind" "degraded" (kind d);
  Alcotest.(check bool) "degraded is ok" true (is_ok d);
  (match to_result d with
  | Ok 2 -> ()
  | _ -> Alcotest.fail "degraded maps to Ok");
  let f =
    Failed (Robust.Err.Nan_detected { stage = "s"; site = "x" })
  in
  Alcotest.(check string) "failed kind" "failed" (kind f);
  Alcotest.(check bool) "failed not ok" false (is_ok f);
  Alcotest.(check (option int)) "value" None (value f)

let test_fault_spec () =
  with_faults "ea_noconv:2,ham_perturb:2:0.05" (fun () ->
      Alcotest.(check bool) "enabled" true (Robust.Fault.enabled ());
      Alcotest.(check bool) "fire 1" true (Robust.Fault.fire "ea_noconv");
      Alcotest.(check bool) "fire 2" true (Robust.Fault.fire "ea_noconv");
      Alcotest.(check bool) "limit reached" false (Robust.Fault.fire "ea_noconv");
      Alcotest.(check bool) "unarmed site" false (Robust.Fault.fire "expm_nan");
      Alcotest.(check (float 1e-12)) "param" 0.05
        (Robust.Fault.param "ham_perturb" ~default:1.0);
      Alcotest.(check (float 1e-12)) "param default" 7.0
        (Robust.Fault.param "ea_noconv" ~default:7.0);
      Alcotest.(check int) "hits" 2 (List.assoc "ea_noconv" (Robust.Fault.hits ())));
  Alcotest.(check bool) "disarmed" false (Robust.Fault.enabled ())

let test_fault_strict_parse () =
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    m = 0 || go 0
  in
  (* a typo'd spec must fail fast at configure time, naming the entry and
     listing the documented sites — not silently arm nothing *)
  let expect_invalid spec frag =
    match Robust.Fault.configure (Some spec) with
    | () -> Alcotest.failf "spec %S accepted" spec
    | exception Invalid_argument msg ->
      Alcotest.(check bool) (Printf.sprintf "%S names fault: %s" spec frag) true
        (contains msg frag);
      Alcotest.(check bool)
        (Printf.sprintf "%S lists known sites" spec)
        true
        (contains msg "known sites" && contains msg "worker_crash")
  in
  expect_invalid "no_such_site:1" "unknown site";
  expect_invalid "ea_noconv:abc" "not an integer";
  expect_invalid "ea_noconv:1:xyz" "not a number";
  expect_invalid "ea_noconv:1:0.5:extra" "too many";
  Alcotest.(check bool) "nothing armed after failures" false (Robust.Fault.enabled ());
  (* seeded probability draws replay exactly *)
  let draws () =
    Robust.Fault.configure ~seed:42 (Some "frame_drop:0:0.5");
    let d = List.init 64 (fun _ -> Robust.Fault.fire_p "frame_drop") in
    disarm ();
    d
  in
  let a = draws () and b = draws () in
  Alcotest.(check bool) "seeded fire_p replays" true (a = b);
  Alcotest.(check bool) "p=0.5 mixes draws" true (List.mem true a && List.mem false a);
  (* fire_p honors the count limit like fire does *)
  Robust.Fault.configure (Some "worker_crash:2");
  Alcotest.(check (list bool)) "fire_p stops at the limit" [ true; true; false ]
    (List.init 3 (fun _ -> Robust.Fault.fire_p "worker_crash"));
  disarm ()

(* ---------------------------------------------------------------- qasm *)

let test_qasm_located_errors () =
  let expect_err src check =
    match Qasm.parse src with
    | Ok _ -> Alcotest.fail "expected parse error"
    | Error e -> check e
  in
  expect_err "REQASM 1.0;\nqreg q[2];\nfrobnicate q[0];\n" (fun e ->
      Alcotest.(check int) "line" 3 e.Qasm.line;
      Alcotest.(check string) "token" "frobnicate" e.Qasm.token;
      Alcotest.(check int) "column" 1 e.Qasm.column);
  expect_err "REQASM 1.0;\nqreg q[2];\nrx(abc) q[0];\n" (fun e ->
      Alcotest.(check int) "line" 3 e.Qasm.line;
      Alcotest.(check string) "token" "abc" e.Qasm.token;
      Alcotest.(check int) "column" 4 e.Qasm.column);
  expect_err "REQASM 1.0;\nqreg q[2];\ncx q[0],bad;\n" (fun e ->
      Alcotest.(check int) "line" 3 e.Qasm.line;
      Alcotest.(check string) "token" "bad" e.Qasm.token;
      Alcotest.(check int) "column" 9 e.Qasm.column);
  expect_err "REQASM 1.0;\ncx q[0],q[1];\n" (fun e ->
      Alcotest.(check string) "missing qreg" "missing qreg declaration" e.Qasm.message);
  expect_err "REQASM 1.0;\nqreg q[2];\ncx q[0]\n" (fun e ->
      Alcotest.(check int) "line" 3 e.Qasm.line);
  (* legacy API still raises Failure with the rendered location *)
  (match Qasm.of_string "REQASM 1.0;\nqreg q[2];\nwat q[0];\n" with
  | exception Failure msg ->
    Alcotest.(check bool) "legacy message located" true (contains msg "line 3")
  | _ -> Alcotest.fail "of_string should raise Failure")

let test_qasm_roundtrip () =
  let c =
    Circuit.create 3
      [ Gate.h 0; Gate.cx 0 1; Gate.can 1 2 0.3 0.2 0.1; Gate.rz 2 0.7 ]
  in
  match Qasm.parse (Qasm.to_string c) with
  | Error e -> Alcotest.fail (Qasm.parse_error_to_string e)
  | Ok c' ->
    Alcotest.(check int) "qubits" c.Circuit.n c'.Circuit.n;
    Alcotest.(check int) "gates" (List.length c.Circuit.gates)
      (List.length c'.Circuit.gates)

(* ------------------------------------------------------------ numerics *)

let random_herm rng n =
  let a = Mat.init n n (fun _ _ -> Cx.mk (Rng.gaussian rng) (Rng.gaussian rng)) in
  Mat.rsmul 0.5 (Mat.add a (Mat.dagger a))

let test_jacobi_near_degenerate () =
  (* two eigenvalues split by 1e-13: the sweep cap must not be hit and the
     returned spectrum must still match to high accuracy *)
  let rng = Rng.create 5L in
  let _, q = Eig.hermitian (random_herm rng 4) in
  let w_true = [| 1.0; 1.0 +. 1e-13; 2.0; 3.0 |] in
  let d = Mat.init 4 4 (fun i j -> if i = j then Cx.of_float w_true.(i) else Cx.zero) in
  let m = Mat.mul3 q d (Mat.dagger q) in
  let a = Mat.create 4 4 and v = Mat.create 4 4 and w = Array.make 4 0.0 in
  Mat.copy_into ~dst:a m;
  match Eig.jacobi_into_r ~a ~v ~w () with
  | Error e -> Alcotest.fail (Robust.Err.to_string e)
  | Ok residual ->
    Alcotest.(check bool) "tiny residual" true (residual < 1e-10);
    Array.sort compare w;
    Array.iteri
      (fun i expected ->
        Alcotest.(check (float 1e-9)) (Printf.sprintf "eigenvalue %d" i) expected w.(i))
      w_true

let test_jacobi_stall_fault () =
  with_faults "jacobi_stall:1" (fun () ->
      let rng = Rng.create 11L in
      let m = random_herm rng 8 in
      let a = Mat.create 8 8 and v = Mat.create 8 8 and w = Array.make 8 0.0 in
      Mat.copy_into ~dst:a m;
      match Eig.jacobi_into_r ~a ~v ~w () with
      | Error (Robust.Err.Non_convergence { stage; residual; _ }) ->
        Alcotest.(check string) "stage" "eig.jacobi" stage;
        Alcotest.(check bool) "positive residual" true (residual > 0.0)
      | Error e -> Alcotest.fail ("unexpected error: " ^ Robust.Err.to_string e)
      | Ok r -> Alcotest.fail (Printf.sprintf "stalled jacobi converged (r=%.2e)" r))

let test_nan_faults () =
  with_faults "mul_nan:1,expm_nan:1" (fun () ->
      let rng = Rng.create 3L in
      let a = random_herm rng 4 and b = random_herm rng 4 in
      let dst = Mat.create 4 4 in
      Mat.mul_into ~dst a b;
      Alcotest.(check bool) "mul poisoned" true (Mat.has_nan dst);
      let ws = Expm.make_ws 4 in
      (match Expm.herm_expi_into_r ws ~dst a ~t:0.3 with
      | Error (Robust.Err.Nan_detected { stage; _ }) ->
        Alcotest.(check string) "stage" "expm" stage
      | Error e -> Alcotest.fail ("unexpected error: " ^ Robust.Err.to_string e)
      | Ok () -> Alcotest.fail "expm NaN not detected"));
  (* disarmed: the same calls are clean *)
  let rng = Rng.create 3L in
  let a = random_herm rng 4 and b = random_herm rng 4 in
  let dst = Mat.create 4 4 in
  Mat.mul_into ~dst a b;
  Alcotest.(check bool) "clean mul" false (Mat.has_nan dst)

(* ------------------------------------------------------------- solver *)

let test_adversarial_inputs () =
  (* near-zero coupling: typed Invalid_hamiltonian, no exception *)
  let weak = Microarch.Coupling.make 1e-12 1e-13 0.0 in
  (match Microarch.Genashn.solve_coords_r weak cnot_coords with
  | Robust.Outcome.Failed (Robust.Err.Invalid_hamiltonian _) -> ()
  | o -> Alcotest.fail ("weak coupling: expected Invalid_hamiltonian, got " ^ outcome_kind o));
  (* NaN-poisoned target unitary: typed Nan_detected *)
  let nan_target = Mat.init 4 4 (fun i j -> if i = j then Cx.of_float Float.nan else Cx.zero) in
  (match Microarch.Genashn.solve_r xy nan_target with
  | Robust.Outcome.Failed (Robust.Err.Nan_detected _) -> ()
  | o -> Alcotest.fail ("nan target: expected Nan_detected, got " ^ outcome_kind o));
  (* near-identity target: any structured outcome is fine, exceptions are not *)
  let near_id = Weyl.Coords.make 1e-8 0.0 0.0 in
  let o = Microarch.Genashn.solve_coords_r xy near_id in
  Alcotest.(check bool) "near-identity structured" true
    (List.mem (outcome_kind o) [ "ok"; "degraded"; "failed" ]);
  (* extreme anisotropy *)
  let aniso = Microarch.Coupling.make 1.0 1e-6 1e-7 in
  let o = Microarch.Genashn.solve_coords_r aniso cnot_coords in
  Alcotest.(check bool) "anisotropic structured" true
    (List.mem (outcome_kind o) [ "ok"; "degraded"; "failed" ])

let test_ea_retry_recovery () =
  Robust.Counters.reset ();
  with_faults "ea_noconv:1" (fun () ->
      match Microarch.Genashn.solve_coords_r xy ea_coords with
      | Robust.Outcome.Degraded (p, i) ->
        Alcotest.(check bool) "retried" true (i.Robust.Outcome.retries >= 1);
        Alcotest.(check bool) "pulse is finite" true (Float.is_finite p.Microarch.Genashn.tau);
        Alcotest.(check bool) "retry counted" true
          (Robust.Counters.get ~stage:"solver.ea" "retry" >= 1);
        Alcotest.(check int) "fault consumed" 1
          (List.assoc "ea_noconv" (Robust.Fault.hits ()))
      | o -> Alcotest.fail ("expected Degraded recovery, got " ^ outcome_kind o))

let test_ea_ladder_exhaustion () =
  Robust.Counters.reset ();
  with_faults "ea_noconv:4" (fun () ->
      match Microarch.Genashn.solve_coords_r xy ea_coords with
      | Robust.Outcome.Failed (Robust.Err.Non_convergence { stage; _ }) ->
        Alcotest.(check string) "stage" "solver.ea" stage;
        Alcotest.(check bool) "failed counted" true
          (Robust.Counters.get ~stage:"solver.ea" "failed" >= 1)
      | o -> Alcotest.fail ("expected ladder exhaustion, got " ^ outcome_kind o))

let test_nd_retry () =
  Robust.Counters.reset ();
  with_faults "nd_noconv:1" (fun () ->
      match Microarch.Genashn.solve_coords_r xy cnot_coords with
      | Robust.Outcome.Solved _ | Robust.Outcome.Degraded _ ->
        Alcotest.(check bool) "nd retry counted" true
          (Robust.Counters.get ~stage:"solver.nd" "retry" >= 1)
      | Robust.Outcome.Failed e -> Alcotest.fail (Robust.Err.to_string e))

let test_ham_perturb () =
  with_faults "ham_perturb:1:0.05" (fun () ->
      let o = Microarch.Genashn.solve_coords_r xy ea_coords in
      Alcotest.(check bool) "structured outcome" true
        (List.mem (outcome_kind o) [ "ok"; "degraded"; "failed" ]);
      Alcotest.(check bool) "perturbation fired" true
        (List.assoc "ham_perturb" (Robust.Fault.hits ()) >= 1))

let test_budget_exceeded_solver () =
  Robust.Counters.reset ();
  let budget = Robust.Budget.make ~max_seconds:0.0 () in
  match Microarch.Genashn.solve_coords_r ~budget xy ea_coords with
  | Robust.Outcome.Failed (Robust.Err.Budget_exceeded { stage; _ }) ->
    Alcotest.(check string) "stage" "solver.ea" stage;
    Alcotest.(check bool) "budget counter" true
      (Robust.Counters.get ~stage:"solver.ea" "budget_exceeded" >= 1)
  | o -> Alcotest.fail ("expected Budget_exceeded, got " ^ outcome_kind o)

let test_solver_baseline_unchanged () =
  (* with no faults armed the robust entry point must agree exactly with
     the legacy one on a clean solve *)
  disarm ();
  match (Microarch.Genashn.solve_coords xy cnot_coords,
         Microarch.Genashn.solve_coords_r xy cnot_coords) with
  | Ok p, Robust.Outcome.Solved p' ->
    Alcotest.(check (float 0.0)) "tau" p.Microarch.Genashn.tau p'.Microarch.Genashn.tau;
    Alcotest.(check (float 0.0)) "x1" p.Microarch.Genashn.drive_x1 p'.Microarch.Genashn.drive_x1;
    Alcotest.(check (float 0.0)) "x2" p.Microarch.Genashn.drive_x2 p'.Microarch.Genashn.drive_x2;
    Alcotest.(check (float 0.0)) "delta" p.Microarch.Genashn.delta p'.Microarch.Genashn.delta
  | Error e, _ -> Alcotest.fail e
  | _, o -> Alcotest.fail ("robust solve not Solved: " ^ outcome_kind o)

(* ------------------------------------------------------------ compiler *)

let small_circuit () =
  (* enough fused 2Q density that hierarchical probes run *)
  let b = List.hd (Benchmarks.Suite.suite ()) in
  b.Benchmarks.Suite.program

let test_hier_fallback () =
  Robust.Counters.reset ();
  with_faults "hier_fail:0" (fun () ->
      let rng = Rng.create 1L in
      match Compiler.Pipeline.compile_r ~mode:Compiler.Pipeline.Full rng (small_circuit ()) with
      | Error e -> Alcotest.fail (Robust.Err.to_string e)
      | Ok out ->
        Alcotest.(check bool) "circuit non-empty" true
          (out.Compiler.Pipeline.circuit.Circuit.gates <> []);
        Alcotest.(check bool) "hier_fail fired" true
          (List.assoc "hier_fail" (Robust.Fault.hits ()) >= 1);
        Alcotest.(check bool) "fallback counted" true
          (Robust.Counters.get ~stage:"compiler.hier" "fallback" >= 1))

let test_pipeline_under_faults () =
  (* all sites armed at once: compilation plus per-gate pulse synthesis must
     still only produce structured outcomes *)
  Robust.Counters.reset ();
  with_faults "expm_nan:2,jacobi_stall:2,ea_noconv:1,nd_noconv:1,ham_perturb:1:0.05,hier_fail:3"
    (fun () ->
      let rng = Rng.create 2L in
      match Compiler.Pipeline.compile_r ~mode:Compiler.Pipeline.Full rng (small_circuit ()) with
      | Error e ->
        (* a typed failure is an acceptable structured outcome *)
        Alcotest.(check bool) "typed" true (String.length (Robust.Err.to_string e) > 0)
      | Ok out ->
        let outcomes = Reqisc.pulse_outcomes xy out.Compiler.Pipeline.circuit in
        List.iter
          (fun (o : Reqisc.gate_outcome) ->
            Alcotest.(check bool) "structured per-gate outcome" true
              (List.mem (Robust.Outcome.kind o.outcome) [ "ok"; "degraded"; "failed" ]))
          outcomes)

let test_pulses_r_never_aborts () =
  disarm ();
  (* a circuit whose second gate is unsolvable junk must still yield
     verdicts for every 2Q gate *)
  let good = Gate.cx 0 1 in
  let bad =
    Gate.make "junk" [| 0; 1 |]
      (Mat.init 4 4 (fun _ _ -> Cx.of_float Float.nan))
  in
  let c = Circuit.create 2 [ good; bad; Gate.cz 0 1 ] in
  let outcomes = Reqisc.pulse_outcomes xy c in
  Alcotest.(check int) "three verdicts" 3 (List.length outcomes);
  let kinds = List.map (fun (o : Reqisc.gate_outcome) -> Robust.Outcome.kind o.outcome) outcomes in
  Alcotest.(check bool) "good solved" true (List.nth kinds 0 = "ok");
  Alcotest.(check string) "bad failed" "failed" (List.nth kinds 1);
  Alcotest.(check bool) "sweep continued" true (List.nth kinds 2 = "ok")

let () =
  disarm ();
  Alcotest.run "robust"
    [
      ( "core",
        [
          Alcotest.test_case "err taxonomy" `Quick test_err_taxonomy;
          Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "budget" `Quick test_budget;
          Alcotest.test_case "zero-second budget" `Quick test_budget_zero_seconds;
          Alcotest.test_case "outcome" `Quick test_outcome;
          Alcotest.test_case "fault spec" `Quick test_fault_spec;
          Alcotest.test_case "fault strict parse" `Quick test_fault_strict_parse;
        ] );
      ( "qasm",
        [
          Alcotest.test_case "located errors" `Quick test_qasm_located_errors;
          Alcotest.test_case "roundtrip" `Quick test_qasm_roundtrip;
        ] );
      ( "numerics",
        [
          Alcotest.test_case "jacobi near-degenerate" `Quick test_jacobi_near_degenerate;
          Alcotest.test_case "jacobi stall fault" `Quick test_jacobi_stall_fault;
          Alcotest.test_case "nan faults" `Quick test_nan_faults;
        ] );
      ( "solver",
        [
          Alcotest.test_case "adversarial inputs" `Quick test_adversarial_inputs;
          Alcotest.test_case "ea retry recovery" `Quick test_ea_retry_recovery;
          Alcotest.test_case "ea ladder exhaustion" `Quick test_ea_ladder_exhaustion;
          Alcotest.test_case "nd retry" `Quick test_nd_retry;
          Alcotest.test_case "hamiltonian perturbation" `Quick test_ham_perturb;
          Alcotest.test_case "budget exceeded" `Quick test_budget_exceeded_solver;
          Alcotest.test_case "baseline unchanged" `Quick test_solver_baseline_unchanged;
        ] );
      ( "compiler",
        [
          Alcotest.test_case "hier fallback" `Quick test_hier_fallback;
          Alcotest.test_case "pipeline under faults" `Quick test_pipeline_under_faults;
          Alcotest.test_case "pulses_r never aborts" `Quick test_pulses_r_never_aborts;
        ] );
    ]
