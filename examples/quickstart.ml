(* Quickstart: compile a small reversible circuit to the SU(4) ISA and
   synthesize the executable pulse program for an XY-coupled device.

   Run with:  dune exec examples/quickstart.exe *)

let () =
  (* a 3-qubit program: Toffoli sandwiched by CNOTs *)
  let circuit =
    Circuit.create 3
      [
        Gate.h 0;
        Gate.cx 0 1;
        Gate.ccx 0 1 2;
        Gate.cx 1 2;
        Gate.ccx 0 1 2;
      ]
  in
  let rng = Numerics.Rng.create 2026L in
  Printf.printf "== input ==\n%s\n" (Circuit.to_string circuit);

  (* CNOT-based reference (what a conventional compiler would execute) *)
  let cnot_input = Decomp.lower_to_cx circuit in
  let base = Reqisc.metrics Compiler.Metrics.Cnot_isa cnot_input in
  Printf.printf "CNOT ISA:  %s\n" (Format.asprintf "%a" Compiler.Metrics.pp_report base);

  (* ReQISC compilation to the {Can, U3} ISA — the facade is
     result-first, so failures arrive as typed errors. The pipeline is a
     plan of named passes; [Plan.default Eff] is what [~mode:Eff] runs,
     and custom plans come from [Reqisc.Plan.of_names]. *)
  let plan = Reqisc.Plan.default Reqisc.Eff in
  Printf.printf "plan %s: %s\n\n" (Reqisc.Plan.name plan)
    (String.concat " -> " (Reqisc.Plan.pass_names plan));
  let out =
    match Reqisc.compile ~plan rng circuit with
    | Ok out -> out
    | Error e ->
      Printf.eprintf "compilation failed: %s\n" (Robust.Err.to_string e);
      exit (Robust.Err.exit_code e)
  in
  let isa = Compiler.Metrics.Su4_isa Reqisc.xy_coupling in
  let opt = Reqisc.metrics isa out.Reqisc.circuit in
  Printf.printf "ReQISC:    %s  (mirrored %d, distinct 3Q classes %d)\n"
    (Format.asprintf "%a" Compiler.Metrics.pp_report opt)
    out.Reqisc.mirrored out.Reqisc.template_classes;
  Printf.printf "reduction: #2Q %.0f%%  duration %.0f%%\n\n"
    (Compiler.Metrics.reduction
       ~base:(float_of_int base.Compiler.Metrics.count_2q)
       ~opt:(float_of_int opt.Compiler.Metrics.count_2q))
    (Compiler.Metrics.reduction ~base:base.Compiler.Metrics.duration
       ~opt:opt.Compiler.Metrics.duration);

  (* pulse synthesis: Algorithm 1 per SU(4) gate *)
  match Reqisc.pulses Reqisc.xy_coupling out.Reqisc.circuit with
  | Error e -> Printf.printf "pulse synthesis failed: %s\n" (Robust.Err.to_string e)
  | Ok instrs ->
    Printf.printf "== pulse program (XY coupling, g = 1) ==\n";
    Printf.printf "%-8s %-5s %10s %10s %10s %10s\n" "qubits" "mode" "tau" "A1" "A2" "delta";
    List.iter
      (fun (i : Reqisc.pulse_instruction) ->
        let p = i.pulse in
        let a1, a2 = Microarch.Genashn.amplitudes p in
        Printf.printf "(%d,%d)    %-5s %10.4f %10.4f %10.4f %10.4f\n" (fst i.qubits)
          (snd i.qubits)
          (Microarch.Tau.subscheme_to_string p.Microarch.Genashn.subscheme)
          p.Microarch.Genashn.tau a1 a2 p.Microarch.Genashn.delta)
      instrs;
    Printf.printf "\ntotal pulse time: %.4f /g (vs %.4f /g on the CNOT ISA)\n"
      opt.Compiler.Metrics.duration base.Compiler.Metrics.duration
