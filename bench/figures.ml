(* Figure regeneration: 4, 5, 6, 12, 13, 14, 15, 16. *)

open Util

(* -------------------------------------------------------------- Fig 4 *)

let fig4 () =
  hr "Fig 4: (omega, delta) solution profile for SWAP under XX coupling";
  let xxc = Microarch.Coupling.xx ~g:1.0 in
  let roots = Microarch.Genashn.ea_roots xxc Weyl.Coords.swap in
  Printf.printf "distinct roots of the EA transcendental system (first quadrant):\n";
  List.iter
    (fun (om, de) ->
      Printf.printf "  omega = %8.4f   delta = %8.4f   penalty = %8.4f\n" om de
        ((2.0 *. om) +. de))
    roots;
  (match Robust.Outcome.to_result (Microarch.Genashn.solve_coords_r xxc Weyl.Coords.swap) with
  | Ok p ->
    Printf.printf "selected by the solver (minimal penalty): omega = %.4f delta = %.4f\n"
      p.Microarch.Genashn.drive_x1 p.Microarch.Genashn.delta
  | Error e -> Printf.printf "solver failed: %s\n" (Robust.Err.to_string e));
  (* coarse residual landscape, as in the figure's contour plot *)
  let grid = Microarch.Genashn.ea_grid xxc Weyl.Coords.swap ~n:13 in
  Printf.printf "\n|residual| landscape (omega down, delta across, 0..3g):\n     ";
  for j = 0 to 12 do
    Printf.printf "%5.1f" (3.0 *. float_of_int j /. 12.0)
  done;
  print_newline ();
  for i = 0 to 12 do
    Printf.printf "%4.1f " (3.0 *. float_of_int i /. 12.0);
    for j = 0 to 12 do
      let _, _, r = grid.((i * 13) + j) in
      Printf.printf "%5.2f" r
    done;
    print_newline ()
  done;
  paper
    "multiple intersection points of the lhs/rhs curves; the solver picks the \
     minimal-amplitude root"

(* -------------------------------------------------------------- Fig 5 *)

let fig5 () =
  hr "Fig 5: compile-time singularity resolution via gate mirroring (qft_4)";
  let qft4 = Benchmarks.Generators.qft 4 in
  let fused = Compiler.Blocks.fuse_2q qft4 in
  Printf.printf "qft_4 2Q classes before mirroring:\n";
  List.iter
    (fun (g : Gate.t) ->
      if Gate.is_2q g then begin
        let c = Weyl.Kak.coords_of g.Gate.mat in
        Printf.printf "  %s: %s  L1=%.3f%s\n" (Gate.to_string g)
          (Weyl.Coords.to_string c) (Weyl.Coords.norm1 c)
          (if Weyl.Coords.norm1 c <= 0.3 then "  <- near-identity" else "")
      end)
    fused.Circuit.gates;
  let m = Compiler.Mirroring.run ~r:0.3 fused in
  Printf.printf "\nafter mirroring: %d gates mirrored, #2Q %d -> %d (no overhead)\n"
    m.Compiler.Mirroring.mirrored (Circuit.count_2q fused)
    (Circuit.count_2q m.Compiler.Mirroring.circuit);
  Printf.printf "final mapping: [%s]\n"
    (String.concat "; "
       (Array.to_list (Array.map string_of_int m.Compiler.Mirroring.final_mapping)));
  let solvable =
    List.for_all
      (fun (g : Gate.t) ->
        (not (Gate.is_2q g))
        ||
        Robust.Outcome.is_ok (Microarch.Genashn.solve_r xy g))
      m.Compiler.Mirroring.circuit.Circuit.gates
  in
  Printf.printf "all mirrored gates solvable by genAshN under XY: %b\n" solvable;
  paper "qft_4 resolves g2, g3 by mirroring with one final mapping update, no extra 2Q gate"

(* -------------------------------------------------------------- Fig 6 *)

let fig6 ~haar_n () =
  hr "Fig 6: hardware implementation of the microarchitecture";
  let xxc = Microarch.Coupling.xx ~g:1.0 in
  sub "(a) gate-time landscape under XY (corners and Haar statistics)";
  List.iter
    (fun (name, c) ->
      Printf.printf "  tau(%-8s) = %.4f /g\n" name (Microarch.Tau.tau_opt xy c))
    [
      ("identity", Weyl.Coords.identity);
      ("CNOT", Weyl.Coords.cnot);
      ("iSWAP", Weyl.Coords.iswap);
      ("SQiSW", Weyl.Coords.sqisw);
      ("B", Weyl.Coords.b_gate);
      ("SWAP", Weyl.Coords.swap);
    ];
  let avg =
    Microarch.Duration.haar_average_par ~n:haar_n ~seed:6_000_000L (fun c ->
        Microarch.Tau.tau_opt xy c)
  in
  Printf.printf "  Haar-average tau = %.4f /g, conventional CNOT = %.4f /g\n" avg
    (Microarch.Duration.conventional_cnot_tau ~g:1.0);
  sub "(b,c) subscheme regions (fraction of Haar-random classes)";
  let fractions coupling seed =
    let n = 2000 in
    (* domain-parallel sweep with per-index rngs: classify each Haar sample
       independently, count sequentially afterwards *)
    let subs =
      Numerics.Par.parallel_init n (fun i ->
          let r = Numerics.Rng.create (Int64.add seed (Int64.of_int i)) in
          let c = Weyl.Kak.coords_of (Quantum.Haar.su4 r) in
          Microarch.Tau.subscheme_to_string
            (Microarch.Tau.plan coupling c).Microarch.Tau.subscheme)
    in
    let counts = Hashtbl.create 3 in
    Array.iter
      (fun k ->
        Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k)))
      subs;
    List.map
      (fun k -> (k, float_of_int (Option.value ~default:0 (Hashtbl.find_opt counts k)) /. float_of_int n))
      [ "ND"; "EA+"; "EA-" ]
  in
  let show name coupling seed =
    Printf.printf "  %-3s: " name;
    List.iter (fun (k, f) -> Printf.printf "%s %.1f%%  " k (100.0 *. f)) (fractions coupling seed);
    print_newline ()
  in
  show "XY" xy 7_000_000L;
  show "XX" xxc 8_000_000L;
  sub "(d) drive amplitudes along gate families under XY (normalized by g)";
  Printf.printf "%-6s | %-21s | %-21s | %-21s\n" "s" "CNOT^s (A1, A2, d)" "B^s (A1, A2, d)"
    "SWAP^s (A1, A2, d)";
  List.iter
    (fun s ->
      let p4 = Float.pi /. 4.0 in
      let fam =
        [
          Weyl.Coords.make (s *. p4) 0.0 0.0;
          Weyl.Coords.make (s *. p4) (s *. p4 /. 2.0) 0.0;
          Weyl.Coords.make (s *. p4) (s *. p4) (s *. p4);
        ]
      in
      Printf.printf "%-6.2f" s;
      List.iter
        (fun c ->
          match Robust.Outcome.value (Microarch.Genashn.solve_coords_r xy c) with
          | Some p ->
            let a1, a2 = Microarch.Genashn.amplitudes p in
            Printf.printf " | %6.2f %6.2f %6.2f" a1 a2 p.Microarch.Genashn.delta
          | None -> Printf.printf " |    (unsolved: mirror)")
        fam;
      print_newline ())
    [ 0.4; 0.6; 0.8; 1.0 ];
  paper
    "iSWAP family needs no drives; CNOT/B families one-sided drive; SWAP family \
     two-sided; near-identity fractions require unbounded amplitudes"

(* -------------------------------------------------------------- Fig 12 *)

let routed_cnot_count (r : Compiler.Routing.routed) =
  (* CNOT ISA: an inserted SWAP costs 3 CNOTs *)
  List.fold_left
    (fun acc (g : Gate.t) ->
      if not (Gate.is_2q g) then acc
      else if g.Gate.label = "swap" then acc + 3
      else acc + 1)
    0 r.Compiler.Routing.circuit.Circuit.gates

let fig12 () =
  hr "Fig 12: topology-aware benchmarking (1D chain and 2D grid)";
  let names =
    [ "alu_2"; "comparator_2"; "qft_8"; "tof_10"; "rip_add_2"; "modulo_3"; "encoding_3"; "qaoa_8" ]
  in
  let suite = Benchmarks.Suite.suite () in
  let rng = Numerics.Rng.create 12L in
  let topo_of n = function
    | `Chain -> Compiler.Routing.chain n
    | `Grid ->
      let cols = int_of_float (Float.ceil (sqrt (float_of_int n))) in
      let rows = (n + cols - 1) / cols in
      Compiler.Routing.grid ~rows ~cols
  in
  List.iter
    (fun shape ->
      sub (match shape with `Chain -> "1D chain" | `Grid -> "2D grid");
      Printf.printf "%-14s %8s %8s %8s %8s %8s %8s\n" "bench" "su4_log" "sabre" "mir-sab"
        "red%" "cx_log" "cx_phys";
      let su4_ratios = ref [] and cx_ratios = ref [] and reds = ref [] in
      List.iter
        (fun name ->
          match List.find_opt (fun (b : Benchmarks.Suite.bench) -> b.name = name) suite with
          | None -> ()
          | Some b ->
            let eff = compile_mode Compiler.Passes.Eff rng b.program in
            let logical = eff.Compiler.Passes.circuit in
            let n = logical.Circuit.n in
            let topo = topo_of n shape in
            let plain = Compiler.Routing.route ~mirror:false topo logical in
            let mir = Compiler.Routing.route ~mirror:true topo logical in
            let cnt (r : Compiler.Routing.routed) = Circuit.count_2q r.Compiler.Routing.circuit in
            (* CNOT-ISA baseline: TKet-like circuit routed with plain SABRE *)
            let cnot_in = Compiler.Pass.program_to_cnot_input b.program in
            let tket =
              match b.program with
              | Compiler.Pass.Pauli p -> Compiler.Baselines.tket_like_pauli p
              | _ -> Compiler.Baselines.tket_like cnot_in
            in
            let cx_routed = Compiler.Routing.route ~mirror:false topo tket in
            let red =
              100.0
              *. float_of_int (cnt plain - cnt mir)
              /. float_of_int (max 1 (cnt plain))
            in
            su4_ratios := (float_of_int (cnt mir) /. float_of_int (Circuit.count_2q logical)) :: !su4_ratios;
            cx_ratios :=
              (float_of_int (routed_cnot_count cx_routed)
              /. float_of_int (Circuit.count_2q tket))
              :: !cx_ratios;
            reds := red :: !reds;
            Printf.printf "%-14s %8d %8d %8d %8.1f %8d %8d\n%!" name
              (Circuit.count_2q logical) (cnt plain) (cnt mir) red
              (Circuit.count_2q tket)
              (routed_cnot_count cx_routed))
        names;
      Printf.printf "geomean overhead: #SU4 %.2fx, #CNOT %.2fx; avg mirroring reduction %.1f%%\n"
        (geomean !su4_ratios) (geomean !cx_ratios) (mean !reds))
    [ `Chain; `Grid ];
  paper
    "mirroring-SABRE reduces #2Q by avg 11.0% (chain) / 15.7% (grid); geomean \
     overhead SU4 1.36x/1.09x vs CNOT 2.45x/1.79x"

(* -------------------------------------------------------------- Fig 13 *)

let fig13 () =
  hr "Fig 13: calibration efficiency (distinct SU(4) classes)";
  let suite = Benchmarks.Suite.suite () in
  let rng = Numerics.Rng.create 13L in
  Printf.printf "%-14s %8s %12s %12s %12s %12s\n" "bench" "#2Q_in" "eff #2Q" "eff dist"
    "full #2Q" "full dist";
  let eff_d = ref [] and full_d = ref [] in
  List.iter
    (fun (b : Benchmarks.Suite.bench) ->
      let input = Compiler.Pass.program_to_cnot_input b.program in
      if Circuit.count_2q input <= 600 then begin
        let eff = compile_mode Compiler.Passes.Eff rng b.program in
        let full = compile_mode Compiler.Passes.Full rng b.program in
        let de = Circuit.distinct_2q eff.Compiler.Passes.circuit in
        let df = Circuit.distinct_2q full.Compiler.Passes.circuit in
        eff_d := float_of_int de :: !eff_d;
        full_d := float_of_int df :: !full_d;
        Printf.printf "%-14s %8d %12d %12d %12d %12d\n%!" b.name (Circuit.count_2q input)
          (Circuit.count_2q eff.Compiler.Passes.circuit)
          de
          (Circuit.count_2q full.Compiler.Passes.circuit)
          df
      end)
    suite;
  let frac_below xs t =
    100.0
    *. float_of_int (List.length (List.filter (fun x -> x < t) xs))
    /. float_of_int (List.length xs)
  in
  Printf.printf
    "\nEff: mean %.1f distinct, %.0f%% of programs below 10\nFull: mean %.1f distinct, %.0f%% below 20, max %.0f\n"
    (mean !eff_d) (frac_below !eff_d 10.0) (mean !full_d) (frac_below !full_d 20.0)
    (List.fold_left Float.max 0.0 !full_d);
  paper "Eff: < 10 distinct SU(4)s; Full: < 200, with > 75% of programs below 20"

(* -------------------------------------------------------------- Fig 14 *)

let fig14 () =
  hr "Fig 14: ablation (#2Q reduction % vs CNOT input; distinct classes)";
  let names = [ "alu_2"; "tof_5"; "rip_add_2"; "encoding_3"; "modulo_3"; "qft_8"; "sym_5" ] in
  let suite = Benchmarks.Suite.suite () in
  let rng = Numerics.Rng.create 14L in
  Printf.printf "%-12s %12s %12s %12s %12s %12s\n" "bench" "Qiskit-SU4" "TKet-SU4"
    "BQSKit-SU4" "ReQISC-NC" "ReQISC-Full";
  List.iter
    (fun name ->
      match List.find_opt (fun (b : Benchmarks.Suite.bench) -> b.name = name) suite with
      | None -> ()
      | Some b ->
        let input = Compiler.Pass.program_to_cnot_input b.program in
        let base = float_of_int (Circuit.count_2q input) in
        let red c = 100.0 *. (base -. float_of_int (Circuit.count_2q c)) /. base in
        let qs = Compiler.Baselines.qiskit_su4 input in
        let ts = Compiler.Baselines.tket_su4 input in
        let bs =
          Compiler.Baselines.bqskit_like (Numerics.Rng.split rng)
            ~target:Compiler.Baselines.To_su4 input
        in
        let nc = compile_mode Compiler.Passes.Nc rng b.program in
        let full = compile_mode Compiler.Passes.Full rng b.program in
        Printf.printf "%-12s %7.1f(%2d) %7.1f(%2d) %7.1f(%2d) %7.1f(%2d) %7.1f(%2d)\n%!"
          name (red qs) (Circuit.distinct_2q qs) (red ts) (Circuit.distinct_2q ts)
          (red bs) (Circuit.distinct_2q bs)
          (red nc.Compiler.Passes.circuit)
          (Circuit.distinct_2q nc.Compiler.Passes.circuit)
          (red full.Compiler.Passes.circuit)
          (Circuit.distinct_2q full.Compiler.Passes.circuit))
    names;
  paper
    "ReQISC-Full beats the SU(4)-variant baselines; BQSKit-SU4 reduces gates but \
     explodes distinct classes; no-compacting loses up to 33% of the reduction on \
     rip_add"

(* -------------------------------------------------------------- Fig 15 *)

let fig15 ~trajectories () =
  hr "Fig 15: program fidelity and pulse duration under depolarizing noise";
  let names = [ "alu_1"; "tof_5"; "modulo_3"; "qaoa_8"; "encoding_3"; "comparator_2" ] in
  let suite = Benchmarks.Suite.suite () in
  let rng = Numerics.Rng.create 15L in
  let p0 = 0.001 in
  let tau0 = Microarch.Duration.conventional_cnot_tau ~g:1.0 in
  let model isa =
    Noise.Depolarizing.duration_scaled ~p0 ~tau0 ~tau:(Compiler.Metrics.gate_tau isa)
  in
  let fidelity isa c seed =
    Noise.Depolarizing.program_fidelity (Numerics.Rng.create seed) (model isa)
      ~trajectories c
  in
  List.iter
    (fun shape ->
      sub
        (match shape with
        | `Logical -> "logical (all-to-all)"
        | `Chain -> "1D chain"
        | `Grid -> "2D grid");
      Printf.printf "%-14s %9s %9s %9s %9s %9s %9s\n" "bench" "F_base" "F_req" "err_red"
        "T_base" "T_req" "speedup";
      let errs = ref [] and speeds = ref [] in
      List.iter
        (fun name ->
          match List.find_opt (fun (b : Benchmarks.Suite.bench) -> b.name = name) suite with
          | None -> ()
          | Some b ->
            let input = Compiler.Pass.program_to_cnot_input b.program in
            let tket =
              match b.program with
              | Compiler.Pass.Pauli p -> Compiler.Baselines.tket_like_pauli p
              | _ -> Compiler.Baselines.tket_like input
            in
            let eff = compile_mode Compiler.Passes.Eff rng b.program in
            let req = eff.Compiler.Passes.circuit in
            let tket, req =
              match shape with
              | `Logical -> (tket, req)
              | (`Chain | `Grid) as s ->
                let topo_of n =
                  match s with
                  | `Chain -> Compiler.Routing.chain n
                  | `Grid ->
                    let cols = int_of_float (Float.ceil (sqrt (float_of_int n))) in
                    Compiler.Routing.grid ~rows:((n + cols - 1) / cols) ~cols
                in
                let rt_b = Compiler.Routing.route ~mirror:false (topo_of tket.Circuit.n) tket in
                (* lower the baseline's routing swaps to 3 CNOTs *)
                let tket_phys = Decomp.lower_to_cx rt_b.Compiler.Routing.circuit in
                let rt_r = Compiler.Routing.route ~mirror:true (topo_of req.Circuit.n) req in
                (tket_phys, rt_r.Compiler.Routing.circuit)
            in
            if req.Circuit.n <= 12 && tket.Circuit.n <= 12 then begin
              let f_b = fidelity cnot_isa tket 21L in
              let f_r = fidelity su4_isa req 21L in
              let t_b = (Compiler.Metrics.report cnot_isa tket).Compiler.Metrics.duration in
              let t_r = (Compiler.Metrics.report su4_isa req).Compiler.Metrics.duration in
              let err_red = (1.0 -. f_b) /. Float.max 1e-9 (1.0 -. f_r) in
              errs := err_red :: !errs;
              speeds := (t_b /. t_r) :: !speeds;
              Printf.printf "%-14s %9.4f %9.4f %8.2fx %9.1f %9.1f %8.2fx\n%!" name f_b f_r
                err_red t_b t_r (t_b /. t_r)
            end)
        names;
      Printf.printf "geomean: error reduction %.2fx, speedup %.2fx\n" (geomean !errs)
        (geomean !speeds))
    [ `Logical; `Chain; `Grid ];
  paper
    "logical: 2.36x error reduction, 3.06x speedup; 2D grid: 3.18x / 4.30x; 1D \
     chain: 3.34x / 4.55x"

(* -------------------------------------------------------------- Fig 16 *)

let fig16 () =
  hr "Fig 16a: compilation error (circuit infidelity vs input, logical level)";
  let names = [ "alu_1"; "tof_5"; "modulo_3"; "comparator_2"; "encoding_3" ] in
  let suite = Benchmarks.Suite.suite () in
  let rng = Numerics.Rng.create 16L in
  Printf.printf "%-14s %11s %11s %11s %11s %11s\n" "bench" "Qiskit" "TKet" "BQSKit" "Eff"
    "Full";
  List.iter
    (fun name ->
      match List.find_opt (fun (b : Benchmarks.Suite.bench) -> b.name = name) suite with
      | None -> ()
      | Some b ->
        let input = Compiler.Pass.program_to_cnot_input b.program in
        if input.Circuit.n <= 9 then begin
          let u0 = Circuit.unitary input in
          let infid u =
            Quantum.Fidelity.infidelity u0 u
          in
          let plain c = infid (Circuit.unitary c) in
          let mapped (out : Compiler.Passes.output) =
            let fix = arrange_matrix input.Circuit.n out.Compiler.Passes.final_mapping in
            infid
              (Numerics.Mat.mul (Numerics.Mat.dagger fix)
                 (Circuit.unitary out.Compiler.Passes.circuit))
          in
          let q = plain (Compiler.Baselines.qiskit_like input) in
          let t = plain (Compiler.Baselines.tket_like input) in
          let bq =
            plain
              (Compiler.Baselines.bqskit_like (Numerics.Rng.split rng)
                 ~target:Compiler.Baselines.To_cnot input)
          in
          let e = mapped (compile_mode Compiler.Passes.Eff rng b.program) in
          let f = mapped (compile_mode Compiler.Passes.Full rng b.program) in
          Printf.printf "%-14s %11.2e %11.2e %11.2e %11.2e %11.2e\n%!" name q t bq e f
        end)
    names;
  paper
    "all compilers numerically exact; exact-KAK pipelines sit at machine precision \
     while approximate-synthesis passes (BQSKit, ReQISC synthesis) are bounded by \
     the 1e-9 synthesis tolerance";

  hr "Fig 16b: compilation latency scaling (seconds)";
  Printf.printf "%-14s %8s %10s %10s %10s %10s %10s\n" "bench" "#2Q_in" "Qiskit" "TKet"
    "BQSKit" "Eff" "Full";
  let latency_names = [ "tof_5"; "alu_2"; "rip_add_4"; "hwb_6"; "sym_9" ] in
  List.iter
    (fun name ->
      match List.find_opt (fun (b : Benchmarks.Suite.bench) -> b.name = name) suite with
      | None -> ()
      | Some b ->
        let input = Compiler.Pass.program_to_cnot_input b.program in
        let _, tq = timeit (fun () -> Compiler.Baselines.qiskit_like input) in
        let _, tt = timeit (fun () -> Compiler.Baselines.tket_like input) in
        let _, tb =
          timeit (fun () ->
              Compiler.Baselines.bqskit_like (Numerics.Rng.split rng)
                ~target:Compiler.Baselines.To_cnot input)
        in
        let _, te =
          timeit (fun () -> compile_mode Compiler.Passes.Eff rng b.program)
        in
        let _, tf =
          timeit (fun () -> compile_mode Compiler.Passes.Full rng b.program)
        in
        Printf.printf "%-14s %8d %10.3f %10.3f %10.3f %10.3f %10.3f\n%!" name
          (Circuit.count_2q input) tq tt tb te tf)
    latency_names;
  paper
    "ReQISC-Eff faster than TKet/BQSKit; ReQISC-Full competitive with BQSKit; both \
     scale polynomially";

  sub "kernel microbenchmarks (Bechamel)";
  let open Bechamel in
  let test =
    Test.make_grouped ~name:"kernels"
      [
        Test.make ~name:"kak_decompose"
          (Staged.stage (fun () -> ignore (Weyl.Kak.decompose Quantum.Gates.b_gate)));
        Test.make ~name:"tau_opt"
          (Staged.stage (fun () ->
               ignore (Microarch.Tau.tau_opt xy (Weyl.Coords.make 0.5 0.3 0.1))));
        (* the class memo is emptied on every run, so this times a root
           search and not a memo lookup *)
        Test.make ~name:"genashn_solve_cnot"
          (Staged.stage (fun () ->
               Microarch.Genashn.memo_clear ();
               ignore (Microarch.Genashn.solve_coords_r xy Weyl.Coords.cnot)));
        Test.make ~name:"statevector_8q_cx"
          (let st = State.zero 8 in
           Staged.stage (fun () -> State.apply_gate_arr ~n:8 st (Gate.cx 3 4)));
      ]
  in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg instances test in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name est acc -> (name, est) :: acc) results [] in
  List.iter
    (fun (name, est) ->
      match Analyze.OLS.estimates est with
      | Some [ t ] -> Printf.printf "  %-28s %12.1f ns/run\n" name t
      | _ -> Printf.printf "  %-28s (no estimate)\n" name)
    (List.sort compare rows)
