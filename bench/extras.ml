(* Extension benches beyond the paper's figures: the pre-synthesized
   template library (Section 5.2 / 6.5.1), the variational fixed-basis
   trade-off (Section 5.3.1), the calibration cost model, and the
   duration-aware decoherence ablation. *)

open Util

let templates () =
  hr "Templates: pre-synthesized 3Q IR library (Section 5.2)";
  let lib = Compiler.Template.create_library (Numerics.Rng.create 42L) in
  let report, t = timeit (fun () -> Compiler.Ir3q.preload lib) in
  Printf.printf "%-16s %8s\n" "IR" "#SU(4)";
  List.iter (fun (name, k) -> Printf.printf "%-16s %8d\n" name k) report;
  Printf.printf "pre-synthesis of %d IRs took %.1fs (one-time, reused across programs)\n"
    (List.length report) t;
  paper
    "distinct 3Q IRs in real programs are finite; a library of a few dozen \
     standard gates serves a vast range of applications"

let variational () =
  hr "Variational: fixed 2Q basis + parametrized 1Q (Section 5.3.1)";
  let rng = Numerics.Rng.create 17L in
  let program = Benchmarks.Generators.qaoa ~seed:3 8 ~layers:2 in
  let su4 = (compile_mode Compiler.Passes.Eff rng (Compiler.Pass.Pauli program)).circuit in
  Printf.printf "%-22s %8s %10s %12s\n" "scheme" "#2Q" "distinct" "experiments";
  let show name c =
    let cost = Microarch.Calibration.estimate c in
    Printf.printf "%-22s %8d %10d %12d\n" name (Circuit.count_2q c)
      cost.Microarch.Calibration.distinct_classes cost.Microarch.Calibration.experiments
  in
  show "reconfigurable SU(4)" su4;
  let sq, tsq = timeit (fun () -> Compiler.Variational.rewrite ~basis:Microarch.Duration.Sqisw rng su4) in
  show "fixed SQiSW + 1Q" sq;
  let b, tb = timeit (fun () -> Compiler.Variational.rewrite ~basis:Microarch.Duration.B rng su4) in
  show "fixed B + 1Q" b;
  Printf.printf "(rewrites took %.1fs / %.1fs; 1Q parameters retune via PMW at no cost)\n"
    tsq tb;
  paper
    "variational programs shift reconfiguration to 1Q gates: slightly more 2Q \
     gates for constant 2Q calibration"

let calibration () =
  hr "Calibration cost model across the suite (Section 6.5)";
  let rng = Numerics.Rng.create 18L in
  Printf.printf "%-14s %10s %10s %12s %14s\n" "bench" "distinct" "families" "model-based"
    "naive per-gate";
  List.iter
    (fun (b : Benchmarks.Suite.bench) ->
      let input = Compiler.Pass.program_to_cnot_input b.program in
      if Circuit.count_2q input <= 120 then begin
        let out = compile_mode Compiler.Passes.Eff rng b.program in
        let c = out.Compiler.Passes.circuit in
        let model = Microarch.Calibration.estimate c in
        let naive =
          Microarch.Calibration.estimate
            ~policy:{ Microarch.Calibration.default_policy with model_based = false }
            c
        in
        Printf.printf "%-14s %10d %10d %12d %14d\n%!" b.name
          model.Microarch.Calibration.distinct_classes
          model.Microarch.Calibration.families model.Microarch.Calibration.experiments
          naive.Microarch.Calibration.experiments
      end)
    (Benchmarks.Suite.suite ());
  paper
    "calibration scales linearly with distinct SU(4)s; model-based parameter \
     generation amortizes whole gate families"

let decoherence ~trajectories () =
  hr "Decoherence ablation: fidelity vs T2 (duration-aware noise)";
  let rng = Numerics.Rng.create 19L in
  let bench = Benchmarks.Generators.tof 5 in
  let input = Decomp.lower_to_cx bench in
  let baseline = Compiler.Baselines.tket_like input in
  let req = (compile_mode Compiler.Passes.Eff rng (Compiler.Pass.Gates bench)).circuit in
  let tb = (Compiler.Metrics.report cnot_isa baseline).Compiler.Metrics.duration in
  let tr = (Compiler.Metrics.report su4_isa req).Compiler.Metrics.duration in
  Printf.printf "tof_5: baseline T=%.1f/g, ReQISC T=%.1f/g (%.2fx faster)\n" tb tr (tb /. tr);
  Printf.printf "%-10s %12s %12s %10s\n" "T2 (1/g)" "F_baseline" "F_ReQISC" "err ratio";
  List.iter
    (fun t2 ->
      let params = { Noise.Decoherence.t1 = 2.0 *. t2; t2 } in
      let fid isa c seed =
        Noise.Decoherence.program_fidelity (Numerics.Rng.create seed) params
          ~tau:(Compiler.Metrics.gate_tau isa)
          ~gate_error:(fun _ -> 0.0)
          ~trajectories c
      in
      let fb = fid cnot_isa baseline 30L in
      let fr = fid su4_isa req 30L in
      Printf.printf "%-10.0f %12.4f %12.4f %9.2fx\n%!" t2 fb fr
        ((1.0 -. fb) /. Float.max 1e-9 (1.0 -. fr)))
    [ 2000.0; 800.0; 300.0; 120.0 ];
  paper
    "decoherence-dominated regime: error ratio tracks the duration ratio, the \
     core argument for time-optimal pulses"

let calibrate () =
  hr "Calibration loop: tomography + coordinate tuning (Section 4.5)";
  let model = Microarch.Coupling.xy ~g:1.0 in
  Printf.printf "%-10s %14s %12s %12s %14s\n" "gate" "model error" "initial" "tuned"
    "fidelity";
  List.iter
    (fun (name, coords, u, g_true) ->
      let device = { Microarch.Tomography.true_coupling = Microarch.Coupling.xy ~g:g_true } in
      match Microarch.Tomography.calibrate device ~model coords with
      | Error e -> Printf.printf "%-10s failed: %s\n" name (Robust.Err.to_string e)
      | Ok (tuned, initial, final) ->
        let f = Microarch.Tomography.corrected_fidelity device tuned u in
        Printf.printf "%-10s %13.1f%% %12.2e %12.2e %14.8f\n" name
          (100.0 *. (g_true -. 1.0)) initial final f)
    [
      ("CNOT", Weyl.Coords.cnot, Quantum.Gates.cnot, 1.05);
      ("iSWAP", Weyl.Coords.iswap, Quantum.Gates.iswap, 0.97);
      ("SQiSW", Weyl.Coords.sqisw, Quantum.Gates.sqisw, 1.03);
      ("B", Weyl.Coords.b_gate, Quantum.Gates.b_gate, 1.02);
      ("SWAP", Weyl.Coords.swap, Quantum.Gates.swap, 1.04);
    ];
  paper
    "tomography-guided tuning converges to high-precision gates from an \
     imperfect device model (Chen et al. calibrated six distinct gates this way)"

let leakage_study () =
  hr "Leakage study: genAshN pulses on 3-level transmons (Section 4.4)";
  let xy = Microarch.Coupling.xy ~g:1.0 in
  Printf.printf "%-8s" "gate";
  List.iter (fun a -> Printf.printf "  alpha/g=%-5.0f       " a) [ -20.0; -40.0; -100.0 ];
  Printf.printf "\n";
  List.iter
    (fun (name, c) ->
      match Robust.Outcome.to_result (Microarch.Genashn.solve_coords_r xy c) with
      | Error e -> Printf.printf "%-8s %s\n" name (Robust.Err.to_string e)
      | Ok p ->
        Printf.printf "%-8s" name;
        List.iter
          (fun alpha ->
            let params = { Microarch.Transmon.anharmonicity = alpha; g = 1.0 } in
            Printf.printf "  L=%.1e F=%.4f" (Microarch.Transmon.leakage params p)
              (Microarch.Transmon.model_fidelity params p))
          [ -20.0; -40.0; -100.0 ];
        Printf.printf "\n%!")
    [
      ("CNOT", Weyl.Coords.cnot);
      ("iSWAP", Weyl.Coords.iswap);
      ("SQiSW", Weyl.Coords.sqisw);
      ("B", Weyl.Coords.b_gate);
      ("SWAP", Weyl.Coords.swap);
    ];
  paper
    "no deliberate |11> <-> |02> transition: leakage stays perturbative in \
     g/|alpha|; the Chen et al. experiment reports 99.37% average fidelity"
