(* Compile the Cuccaro ripple-carry adder end to end — logical optimization
   plus mirroring-SABRE mapping onto a 1D chain — and check that the routed
   circuit still adds correctly.

   Run with:  dune exec examples/adder_compile.exe *)

open Numerics

let k = 3 (* bits per register *)

(* unwrap the facade's typed errors, exiting with their CLI code *)
let ok = function
  | Ok v -> v
  | Error e ->
    Printf.eprintf "error: %s\n" (Robust.Err.to_string e);
    exit (Robust.Err.exit_code e)

let () =
  let adder = Benchmarks.Generators.ripple_add k in
  let n = adder.Circuit.n in
  let rng = Rng.create 7L in
  Printf.printf "Cuccaro adder: %d qubits, %d gates\n" n (Circuit.gate_count adder);

  let cnot_input = Decomp.lower_to_cx adder in
  let base = Compiler.Metrics.report Compiler.Metrics.Cnot_isa cnot_input in
  let qiskit = Compiler.Baselines.qiskit_like cnot_input in
  let base_q = Compiler.Metrics.report Compiler.Metrics.Cnot_isa qiskit in

  let isa = Compiler.Metrics.Su4_isa Reqisc.xy_coupling in
  let eff = ok (Reqisc.compile ~mode:Reqisc.Eff rng adder) in
  let full = ok (Reqisc.compile ~mode:Reqisc.Full rng adder) in
  let pp tag r = Printf.printf "%-14s %s\n" tag (Format.asprintf "%a" Compiler.Metrics.pp_report r) in
  pp "input (CNOT)" base;
  pp "Qiskit-like" base_q;
  pp "ReQISC-Eff" (Compiler.Metrics.report isa eff.Reqisc.circuit);
  pp "ReQISC-Full" (Compiler.Metrics.report isa full.Reqisc.circuit);

  (* map onto a 1D chain with mirroring-SABRE *)
  let topo = Compiler.Routing.chain n in
  let routed = ok (Reqisc.route ~mirror:true topo eff.Reqisc.circuit) in
  Printf.printf "routed on chain: #SU4 %d (+%d swaps inserted, %d absorbed)\n"
    (Circuit.count_2q routed.Compiler.Routing.circuit)
    routed.Compiler.Routing.swaps_inserted routed.Compiler.Routing.swaps_absorbed;

  (* functional check through the full stack: logical result of 5 + 3 *)
  let a_in = 5 and b_in = 3 in
  let bpos i = 1 + (2 * i) and apos i = 2 + (2 * i) in
  let logical_bits = Array.make n 0 in
  for i = 0 to k - 1 do
    logical_bits.(bpos i) <- (b_in lsr i) land 1;
    logical_bits.(apos i) <- (a_in lsr i) land 1
  done;
  (* place logical bits on physical wires per the routing initial mapping
     (the compile-stage mirroring mapping applies after the circuit) *)
  let init_map = routed.Compiler.Routing.initial_mapping in
  let phys_index =
    Array.to_list logical_bits
    |> List.mapi (fun l bit -> (init_map.(l), bit))
    |> List.fold_left (fun acc (w, bit) -> acc lor (bit lsl (n - 1 - w))) 0
  in
  let st = Array.make (1 lsl n) Cx.zero in
  st.(phys_index) <- Cx.one;
  let out_state = State.run_from ~n routed.Compiler.Routing.circuit.Circuit.gates st in
  let winner = ref 0 in
  Array.iteri (fun i v -> if Cx.norm v > 0.9 then winner := i) out_state;
  (* read back: physical wire -> logical wire via routing final mapping and
     compile-stage mirroring mapping *)
  let read logical_wire =
    let l' = eff.Reqisc.final_mapping.(logical_wire) in
    let w = routed.Compiler.Routing.final_mapping.(l') in
    (!winner lsr (n - 1 - w)) land 1
  in
  let sum = ref 0 in
  for i = 0 to k - 1 do
    sum := !sum lor (read (bpos i) lsl i)
  done;
  sum := !sum lor (read (n - 1) lsl k);
  Printf.printf "functional check: %d + %d = %d  [%s]\n" a_in b_in !sum
    (if !sum = a_in + b_in then "OK" else "WRONG")
