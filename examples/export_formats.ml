(* Export a compiled program in every supported exchange format: RevLib
   .real (input form), REQASM (compiled SU(4) circuit) and the timed pulse
   schedule — the hand-off artifacts between compiler and control stack.

   Run with:  dune exec examples/export_formats.exe *)

let () =
  let dir = Filename.get_temp_dir_name () in
  let adder = Benchmarks.Generators.ripple_add 2 in

  (* the reversible-network input, as a RevLib .real file *)
  let real_path = Filename.concat dir "ripple_add_2.real" in
  Benchmarks.Real_format.save real_path adder;
  Printf.printf "wrote %s\n" real_path;

  (* it parses back identically *)
  let reparsed = Benchmarks.Real_format.load real_path in
  Printf.printf "  reparsed: %d qubits, %d gates\n" reparsed.Circuit.n
    (Circuit.gate_count reparsed);

  (* compile and export the SU(4) circuit as REQASM *)
  let rng = Numerics.Rng.create 1L in
  let out =
    match Reqisc.compile ~mode:Reqisc.Eff rng reparsed with
    | Ok out -> out
    | Error e ->
      Printf.eprintf "compilation failed: %s\n" (Robust.Err.to_string e);
      exit (Robust.Err.exit_code e)
  in
  let qasm_path = Filename.concat dir "ripple_add_2.reqasm" in
  Qasm.save qasm_path out.Reqisc.circuit;
  Printf.printf "wrote %s (%d su4 gates)\n" qasm_path
    (Circuit.count_2q out.Reqisc.circuit);
  let roundtrip =
    match Qasm.parse_file qasm_path with
    | Ok c -> c
    | Error e ->
      Printf.eprintf "%s: %s\n" qasm_path (Qasm.parse_error_to_string e);
      exit 3
  in
  Printf.printf "  reqasm roundtrip: %d gates, width %d\n"
    (Circuit.gate_count roundtrip) roundtrip.Circuit.n;

  (* pulse schedule for an XY-coupled device *)
  match Microarch.Schedule.schedule Reqisc.xy_coupling out.Reqisc.circuit with
  | Error e ->
    Printf.eprintf "scheduling failed: %s\n" (Robust.Err.to_string e);
    exit (Robust.Err.exit_code e)
  | Ok s ->
    let sched_path = Filename.concat dir "ripple_add_2.pulses" in
    let oc = open_out sched_path in
    output_string oc (Microarch.Schedule.to_string s);
    close_out oc;
    Printf.printf "wrote %s\n\n" sched_path;
    print_string (Microarch.Schedule.to_string s)
