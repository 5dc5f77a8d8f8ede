(* Property-based tests spanning subsystem boundaries. *)

open Numerics

let random_circuit seed =
  let r = Rng.create seed in
  let n = 2 + Rng.int r 2 in
  let gates =
    List.init
      (3 + Rng.int r 8)
      (fun _ ->
        let a = Rng.int r n in
        let b = (a + 1 + Rng.int r (n - 1)) mod n in
        match Rng.int r 6 with
        | 0 -> Gate.h a
        | 1 -> Gate.t a
        | 2 -> Gate.rz a (Rng.float r 3.0)
        | 3 -> Gate.cx a b
        | 4 -> Gate.su4 a b (Quantum.Haar.su4 r)
        | _ -> Gate.can a b (Rng.float r 0.7) (Rng.float r 0.3) 0.0)

  in
  Circuit.create n gates

let arb_seed = QCheck.make QCheck.Gen.(map Int64.of_int (int_bound 1000000))

let props =
  [
    QCheck.Test.make ~count:25 ~name:"reqasm roundtrips any circuit" arb_seed
      (fun seed ->
        let c = random_circuit seed in
        let c' = Expect.qasm (Qasm.to_string c) in
        Mat.allclose_up_to_phase ~tol:1e-9 (Circuit.unitary c) (Circuit.unitary c'));
    QCheck.Test.make ~count:20 ~name:"fuse_2q preserves any circuit" arb_seed
      (fun seed ->
        let c = random_circuit seed in
        Mat.allclose_up_to_phase ~tol:1e-7 (Circuit.unitary c)
          (Circuit.unitary (Compiler.Blocks.fuse_2q c)));
    QCheck.Test.make ~count:20 ~name:"fuse_2q never increases #2q" arb_seed
      (fun seed ->
        let c = random_circuit seed in
        Circuit.count_2q (Compiler.Blocks.fuse_2q c) <= Circuit.count_2q c);
    QCheck.Test.make ~count:15 ~name:"schedule makespan equals duration metric" arb_seed
      (fun seed ->
        let c = random_circuit seed in
        (* drop near-identity classes the scheduler would reject *)
        let c =
          Circuit.create c.Circuit.n
            (List.filter
               (fun (g : Gate.t) ->
                 (not (Gate.is_2q g))
                 || Weyl.Coords.norm1 (Weyl.Kak.coords_of g.Gate.mat) > 0.25)
               c.Circuit.gates)
        in
        let xy = Microarch.Coupling.xy ~g:1.0 in
        match Microarch.Schedule.schedule xy c with
        | Error _ -> true (* rejected gates are fine *)
        | Ok s ->
          let d =
            (Compiler.Metrics.report (Compiler.Metrics.Su4_isa xy) c).Compiler.Metrics.duration
          in
          Float.abs (s.Microarch.Schedule.makespan -. d) < 1e-6);
    QCheck.Test.make ~count:15 ~name:"su4_to_cx uses at most 3 cnots" arb_seed
      (fun seed ->
        let r = Rng.create seed in
        let g = Gate.su4 0 1 (Quantum.Haar.su4 r) in
        let gates = Decomp.su4_to_cx g in
        List.length (List.filter Gate.is_2q gates) <= 3);
    QCheck.Test.make ~count:15 ~name:"calibration estimate monotone in classes" arb_seed
      (fun seed ->
        let c = random_circuit seed in
        let cost = Microarch.Calibration.estimate c in
        cost.Microarch.Calibration.families <= cost.Microarch.Calibration.distinct_classes
        && cost.Microarch.Calibration.experiments
           >= Microarch.Calibration.default_policy.Microarch.Calibration.base_experiments);
    QCheck.Test.make ~count:10 ~name:"real format roundtrips reversible circuits" arb_seed
      (fun seed ->
        let r = Rng.create seed in
        let n = 4 in
        let gates =
          List.init 8 (fun _ ->
              let a = Rng.int r n in
              let b = (a + 1 + Rng.int r (n - 1)) mod n in
              let c = (b + 1 + Rng.int r (n - 2)) mod n in
              let c = if c = a then (c + 1) mod n else c in
              match Rng.int r 3 with
              | 0 -> Gate.x a
              | 1 -> Gate.cx a b
              | _ -> if c <> a && c <> b then Gate.ccx a b c else Gate.cx a b)
        in
        let circ = Circuit.create n gates in
        let back = Benchmarks.Real_format.of_string (Benchmarks.Real_format.to_string circ) in
        Mat.allclose_up_to_phase ~tol:1e-9 (Circuit.unitary circ) (Circuit.unitary back));
  ]

let () = Alcotest.run "properties" [ ("cross-cutting", List.map QCheck_alcotest.to_alcotest props) ]
