(* Cross-cutting integration and invariant tests: microarchitecture
   consistency laws, end-to-end equivalences with random programs,
   determinism, and edge cases that individual module suites don't cover. *)

open Numerics

let rng = Rng.create 404L

let check_phase ?(tol = 1e-6) msg expected actual =
  Alcotest.(check bool)
    (msg ^ " (phase dist " ^ string_of_float (Mat.phase_dist expected actual) ^ ")")
    true
    (Mat.allclose_up_to_phase ~tol expected actual)

let arrange_matrix n (m : int array) =
  let dim = 1 lsl n in
  Mat.init dim dim (fun y x ->
      let ok = ref true in
      for l = 0 to n - 1 do
        if (y lsr (n - 1 - m.(l))) land 1 <> (x lsr (n - 1 - l)) land 1 then ok := false
      done;
      if !ok then Cx.one else Cx.zero)

(* -------------------------------------------------- microarch invariants *)

let test_free_evolution_is_optimal () =
  (* evolving under H[a,b,c] alone for time t reaches exactly the class
     (at, bt, ct), and Theorem 1 must assign it hit time exactly t -- this
     pins the coordinate convention of the frontier formulas. *)
  List.iter
    (fun (a, b, c) ->
      let h = Microarch.Coupling.make a b c in
      List.iter
        (fun t ->
          let u = Expm.herm_expi (Microarch.Coupling.matrix h) ~t in
          let coords = Weyl.Kak.coords_of u in
          let tau = Microarch.Tau.tau_opt h coords in
          Alcotest.(check bool)
            (Printf.sprintf "free evolution H[%g,%g,%g] t=%g: tau=%g" a b c t tau)
            true
            (Float.abs (tau -. t) < 1e-9))
        [ 0.2; 0.5; 0.75 ])
    [ (1.0, 0.5, 0.25); (1.0, 0.5, -0.25); (0.5, 0.5, 0.0); (1.0, 0.9, 0.8) ]

let test_tau_below_conventional_everywhere () =
  (* the native realization never loses to 3x the conventional CNOT pulse *)
  let h = Microarch.Coupling.xy ~g:1.0 in
  let bound = 3.0 *. Microarch.Duration.conventional_cnot_tau ~g:1.0 in
  for _ = 1 to 50 do
    let c = Weyl.Kak.coords_of (Quantum.Haar.su4 rng) in
    Alcotest.(check bool) "tau below CNOT synthesis" true
      (Microarch.Tau.tau_opt h c < bound)
  done

let test_ea_roots_ladder () =
  (* Fig 4: SWAP under XX has a ladder of roots; penalties increase and the
     solver picks the smallest *)
  let xxc = Microarch.Coupling.xx ~g:1.0 in
  let roots = Microarch.Genashn.ea_roots xxc Weyl.Coords.swap in
  Alcotest.(check bool)
    (Printf.sprintf "found %d roots" (List.length roots))
    true
    (List.length roots >= 3);
  let p = Expect.solved (Microarch.Genashn.solve_coords_r xxc Weyl.Coords.swap) in
  let min_pen =
    List.fold_left
      (fun acc (o, d) -> Float.min acc ((2.0 *. o) +. d))
      infinity roots
  in
  let pen = (2.0 *. Float.abs p.Microarch.Genashn.drive_x1) +. Float.abs p.Microarch.Genashn.delta in
  Alcotest.(check bool)
    (Printf.sprintf "selected penalty %.4f = min %.4f" pen min_pen)
    true
    (pen <= min_pen +. 1e-6);
  (* each root actually solves the problem *)
  List.iteri
    (fun i (om, de) ->
      if i < 3 then begin
        let p =
          {
            Microarch.Genashn.tau = Microarch.Tau.tau_opt xxc Weyl.Coords.swap;
            subscheme = Microarch.Tau.EA_same;
            drive_x1 = om;
            drive_x2 = om;
            delta = de;
          }
        in
        let got = Weyl.Kak.coords_of (Microarch.Genashn.evolve xxc p) in
        Alcotest.(check bool)
          (Printf.sprintf "root %d realizes SWAP (dist %.2g)" i
             (Weyl.Coords.dist got Weyl.Coords.swap))
          true
          (Weyl.Coords.dist got Weyl.Coords.swap < 1e-6)
      end)
    roots

let test_pulse_corrections_unitary () =
  let h = Microarch.Coupling.make 0.8 0.5 0.2 in
  for _ = 1 to 5 do
    let u = Quantum.Haar.su4 rng in
    if Weyl.Coords.norm1 (Weyl.Kak.coords_of u) > 0.25 then begin
      let r = Expect.solved (Microarch.Genashn.solve_r h (Gate.su4 0 1 u)) in
      List.iter
        (fun (n, m) ->
          Alcotest.(check bool) (n ^ " unitary") true (Mat.is_unitary ~tol:1e-7 m))
        [
          ("a1", r.Microarch.Genashn.a1); ("a2", r.Microarch.Genashn.a2);
          ("b1", r.Microarch.Genashn.b1); ("b2", r.Microarch.Genashn.b2);
        ]
    end
  done

(* -------------------------------------------------- end-to-end pipelines *)

let random_ccx_program r n gates =
  Circuit.create n
    (List.init gates (fun _ ->
         let distinct k banned =
           let rec draw () =
             let v = Rng.int r k in
             if List.mem v banned then draw () else v
           in
           draw ()
         in
         match Rng.int r 4 with
         | 0 ->
           let a = Rng.int r n in
           let b = distinct n [ a ] in
           Gate.cx a b
         | 1 -> Gate.x (Rng.int r n)
         | 2 -> Gate.h (Rng.int r n)
         | _ ->
           let a = Rng.int r n in
           let b = distinct n [ a ] in
           let c = distinct n [ a; b ] in
           Gate.ccx a b c))

let test_pipeline_random_programs () =
  (* fuzz: Eff pipeline preserves semantics on random CCX programs *)
  for k = 1 to 4 do
    let r = Rng.create (Int64.of_int (1000 + k)) in
    let c = random_ccx_program r 4 10 in
    let out = Expect.ok (Reqisc.compile r c) in
    let fix = arrange_matrix 4 out.Reqisc.final_mapping in
    check_phase ~tol:1e-3
      (Printf.sprintf "random program %d" k)
      (Circuit.unitary c)
      (Mat.mul (Mat.dagger fix) (Circuit.unitary out.Reqisc.circuit))
  done

let test_pipeline_deterministic () =
  let c = random_ccx_program (Rng.create 55L) 4 8 in
  let run () =
    let out = Expect.ok (Reqisc.compile (Rng.create 9L) c) in
    (Circuit.count_2q out.Reqisc.circuit, out.Reqisc.final_mapping)
  in
  let a = run () and b = run () in
  Alcotest.(check int) "same count" (fst a) (fst b);
  Alcotest.(check bool) "same mapping" true (snd a = snd b)

let test_full_no_worse_than_eff () =
  List.iter
    (fun seed ->
      let c = random_ccx_program (Rng.create (Int64.of_int seed)) 4 12 in
      let compile mode =
        (Expect.ok (Reqisc.compile ~mode (Rng.create 2L) c)).Reqisc.circuit |> Circuit.count_2q
      in
      let eff = compile Reqisc.Eff and full = compile Reqisc.Full in
      Alcotest.(check bool)
        (Printf.sprintf "full (%d) <= eff (%d)" full eff)
        true (full <= eff))
    [ 7; 21 ]

let test_pulses_for_compiled_circuit () =
  (* the whole chain: compile, then Algorithm 1 on every gate succeeds *)
  let c = random_ccx_program (Rng.create 66L) 4 8 in
  let out = Expect.ok (Reqisc.compile (Rng.create 3L) c) in
  match Reqisc.pulses Reqisc.xy_coupling out.Reqisc.circuit with
  | Error e -> Alcotest.fail (Robust.Err.to_string e)
  | Ok instrs ->
    Alcotest.(check int) "one pulse per 2q gate"
      (Circuit.count_2q out.Reqisc.circuit)
      (List.length instrs);
    List.iter
      (fun (i : Reqisc.pulse_instruction) ->
        Alcotest.(check bool) "finite tau" true
          (Float.is_finite i.pulse.Microarch.Genashn.tau
          && i.pulse.Microarch.Genashn.tau >= 0.0))
      instrs

(* -------------------------------------------------------- routing extra *)

let test_routing_deterministic () =
  let r = Rng.create 77L in
  let c =
    Circuit.create 6
      (List.init 15 (fun _ ->
           let a = Rng.int r 6 in
           let b = (a + 1 + Rng.int r 5) mod 6 in
           Gate.su4 a b (Quantum.Haar.su4 r)))
  in
  let topo = Compiler.Routing.grid ~rows:2 ~cols:3 in
  let route () =
    let out = Compiler.Routing.route ~mirror:true topo c in
    Circuit.count_2q out.Compiler.Routing.circuit
  in
  Alcotest.(check int) "same route" (route ()) (route ())

let test_routing_wide_grid () =
  let r = Rng.create 88L in
  let n = 9 in
  let c =
    Circuit.create n
      (List.init 25 (fun _ ->
           let a = Rng.int r n in
           let b = (a + 1 + Rng.int r (n - 1)) mod n in
           Gate.su4 a b (Quantum.Haar.su4 r)))
  in
  let topo = Compiler.Routing.grid ~rows:3 ~cols:3 in
  let out = Compiler.Routing.route ~mirror:true topo c in
  List.iter
    (fun (g : Gate.t) ->
      if Gate.is_2q g then
        Alcotest.(check bool) "adjacent" true
          (topo.Compiler.Routing.dist.(g.qubits.(0)).(g.qubits.(1)) = 1))
    out.Compiler.Routing.circuit.Circuit.gates

(* --------------------------------------------------------- edge cases *)

let test_kak_boundary_gates () =
  (* gates on chamber faces and edges decompose and reconstruct *)
  List.iter
    (fun (x, y, z) ->
      let c = Weyl.Coords.make x y z in
      let u = Weyl.Kak.canonical c in
      let d = Weyl.Kak.decompose u in
      Alcotest.(check bool)
        (Printf.sprintf "boundary %s -> %s" (Weyl.Coords.to_string c)
           (Weyl.Coords.to_string d.Weyl.Kak.coords))
        true
        (Weyl.Coords.dist c d.Weyl.Kak.coords < 1e-7
        && Mat.equal ~tol:1e-7 (Weyl.Kak.reconstruct d) u))
    [
      (Float.pi /. 4.0, 0.4, 0.4);
      (Float.pi /. 4.0, Float.pi /. 4.0, 0.1);
      (0.5, 0.5, 0.5);
      (0.5, 0.5, -0.5);
      (0.3, 0.3, 0.0);
      (Float.pi /. 4.0, 0.2, 0.0);
    ]

let test_dagger_flips_z () =
  (* class of the inverse: (x, y, z) -> (x, y, -z) for interior points *)
  let c = Weyl.Coords.make 0.6 0.4 0.2 in
  let u = Weyl.Kak.canonical c in
  let cd = Weyl.Kak.coords_of (Mat.dagger u) in
  Alcotest.(check bool)
    (Printf.sprintf "dagger class %s" (Weyl.Coords.to_string cd))
    true
    (Weyl.Coords.dist cd (Weyl.Coords.make 0.6 0.4 (-0.2)) < 1e-7)

let test_fuse_idempotent () =
  let c = random_ccx_program (Rng.create 99L) 4 10 in
  let low = Decomp.lower_to_cx c in
  let once = Compiler.Blocks.fuse_2q low in
  let twice = Compiler.Blocks.fuse_2q once in
  Alcotest.(check int) "fuse idempotent on #2q" (Circuit.count_2q once)
    (Circuit.count_2q twice)

let test_noise_extremes () =
  let bell = Circuit.create 2 [ Gate.h 0; Gate.cx 0 1 ] in
  let f0 =
    Noise.Depolarizing.program_fidelity (Rng.create 1L)
      (Noise.Depolarizing.uniform_p 0.0) ~trajectories:5 bell
  in
  Alcotest.(check (float 1e-9)) "no noise = 1" 1.0 f0;
  let f1 =
    Noise.Depolarizing.program_fidelity (Rng.create 1L)
      (Noise.Depolarizing.uniform_p 1.0) ~trajectories:400 bell
  in
  Alcotest.(check bool) (Printf.sprintf "total noise hurts (%.3f)" f1) true (f1 < 0.95)

let qcheck_tests =
  let arb_seed = QCheck.make QCheck.Gen.(map Int64.of_int (int_bound 1000000)) in
  [
    QCheck.Test.make ~count:15 ~name:"mirroring preserves semantics" arb_seed
      (fun seed ->
        let r = Rng.create seed in
        let c =
          Circuit.create 3
            (List.init 6 (fun _ ->
                 let a = Rng.int r 3 in
                 let b = (a + 1 + Rng.int r 2) mod 3 in
                 Gate.su4 a b (Quantum.Haar.su4 r)))
        in
        let m = Compiler.Mirroring.run ~r:0.4 c in
        let fix = arrange_matrix 3 m.Compiler.Mirroring.final_mapping in
        Mat.allclose_up_to_phase ~tol:1e-7 (Circuit.unitary c)
          (Mat.mul (Mat.dagger fix) (Circuit.unitary m.Compiler.Mirroring.circuit)));
    QCheck.Test.make ~count:10 ~name:"solve reconstructs haar targets" arb_seed
      (fun seed ->
        let r = Rng.create seed in
        let u = Quantum.Haar.su4 r in
        let c = Weyl.Kak.coords_of u in
        if Weyl.Coords.norm1 c < 0.25 then true
        else
          let res = Expect.solved (Microarch.Genashn.solve_r (Microarch.Coupling.xy ~g:1.0) (Gate.su4 0 1 u)) in
          Mat.equal ~tol:1e-5 (Microarch.Genashn.reconstruct res) u);
  ]

let () =
  Alcotest.run "integration"
    [
      ( "microarch invariants",
        [
          Alcotest.test_case "free evolution optimal" `Quick test_free_evolution_is_optimal;
          Alcotest.test_case "tau beats conventional" `Quick test_tau_below_conventional_everywhere;
          Alcotest.test_case "ea root ladder" `Quick test_ea_roots_ladder;
          Alcotest.test_case "corrections unitary" `Quick test_pulse_corrections_unitary;
        ] );
      ( "pipelines",
        [
          Alcotest.test_case "random programs" `Slow test_pipeline_random_programs;
          Alcotest.test_case "deterministic" `Slow test_pipeline_deterministic;
          Alcotest.test_case "full <= eff" `Slow test_full_no_worse_than_eff;
          Alcotest.test_case "pulses for compiled" `Slow test_pulses_for_compiled_circuit;
        ] );
      ( "routing",
        [
          Alcotest.test_case "deterministic" `Quick test_routing_deterministic;
          Alcotest.test_case "wide grid" `Quick test_routing_wide_grid;
        ] );
      ( "edge cases",
        [
          Alcotest.test_case "kak boundary" `Quick test_kak_boundary_gates;
          Alcotest.test_case "dagger flips z" `Quick test_dagger_flips_z;
          Alcotest.test_case "fuse idempotent" `Quick test_fuse_idempotent;
          Alcotest.test_case "noise extremes" `Quick test_noise_extremes;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
