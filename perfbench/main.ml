(* perfbench: one command for the repo's end-to-end and per-layer
   performance figures.

     perfbench --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 measures with no sink installed by the benchmark and prints
   the end-to-end metrics; --trace 1 also measures traced passes with an
   Obs recorder and prints the per-layer metrics. The last stdout line
   is the result object; the line before it records the machine and
   what was run. See BENCHMARK.json for the workloads. *)

open Common

let workloads =
  [
    ( "reversible-full",
      fun ~seed ~seconds ~trace ->
        Compile_wl.run ~mode:Compiler.Passes.Full ~programs:Compile_wl.reversible ~seed
          ~seconds ~trace );
    ( "pauli-eff",
      fun ~seed ~seconds ~trace ->
        Compile_wl.run ~mode:Compiler.Passes.Eff ~programs:Compile_wl.pauli ~seed ~seconds
          ~trace );
    ("serve-mixed", Serve_wl.run);
  ]

let usage () =
  prerr_endline
    ("usage: perfbench --workload {"
    ^ String.concat "|" (List.map fst workloads)
    ^ "} --seed N --seconds S --trace 0|1");
  exit 2

let rec parse args acc =
  match args with
  | [] -> acc
  | flag :: v :: rest
    when List.mem flag [ "--workload"; "--seed"; "--seconds"; "--trace" ] ->
    parse rest ((String.sub flag 2 (String.length flag - 2), v) :: acc)
  | _ -> usage ()

let machine () =
  Printf.sprintf "{\"cores\": %d, \"ocaml\": %s, \"reqisc_domains\": %s}"
    (Domain.recommended_domain_count ())
    (json_string Sys.ocaml_version)
    (match Sys.getenv_opt "REQISC_DOMAINS" with Some s -> json_string s | None -> "null")

let () =
  let opts = parse (List.tl (Array.to_list Sys.argv)) [] in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let name = get "workload" in
  let run = match List.assoc_opt name workloads with Some f -> f | None -> usage () in
  let seed = match Int64.of_string_opt (get "seed") with Some s -> s | None -> usage () in
  let seconds =
    match float_of_string_opt (get "seconds") with Some s when s > 0.0 -> s | _ -> usage ()
  in
  let trace = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
  let r = run ~seed ~seconds ~trace in
  let finite = List.for_all (fun x -> Float.is_finite x.value) r.metrics in
  List.iter
    (fun x -> if not (Float.is_finite x.value) then Printf.eprintf "metric %s is not finite\n" x.name)
    r.metrics;
  Printf.printf "{\"workload\": %s, \"seed\": %Ld, \"seconds\": %s, \"trace\": %b, \"machine\": %s%s}\n"
    (json_string name) seed (json_float seconds) trace (machine ())
    (String.concat "" (List.map (fun (k, v) -> Printf.sprintf ", %s: %s" (json_string k) v) r.report));
  let metrics =
    List.map
      (fun x ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string x.name)
          (json_float (if Float.is_finite x.value then x.value else 0.0))
          (json_string x.unit_))
      r.metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (r.checks_ok && finite) r.attempted r.failed (String.concat ", " metrics)
