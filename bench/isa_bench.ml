(* `isa` bench target: the cross-ISA compilation matrix.

   Compiles a suite prefix to every registered target ISA through the
   [to_can; lower_isa:<target>] plans and tabulates, per (bench, target):
   emitted 2Q count, 2Q depth, synthesized duration under the target's
   own cost model, and compile wall time. Gates on the paper's core
   claim — the reconfigurable (native SU(4)) ISA needs no more 2Q gates
   than ANY fixed target on EVERY bench — and writes the matrix to
   BENCH_isa.json. *)

open Util

type cell = {
  count_2q : int;
  depth_2q : int;
  duration : float;
  wall_s : float;
}

let isa_bench ?(limit = 4) ~big () =
  hr "isa: cross-ISA compilation matrix";
  let suite = List.filteri (fun i _ -> i < limit) (Benchmarks.Suite.suite ~big ()) in
  let targets = Isa.targets in
  let failures = ref 0 in
  (* rows: (bench, [(target, cell option)] in registry order) *)
  let rows =
    List.map
      (fun (b : Benchmarks.Suite.bench) ->
        let cells =
          List.map
            (fun (t : Isa.target) ->
              let rng = Numerics.Rng.create 1L in
              let plan = Compiler.Passes.plan_for_isa t in
              let res, wall =
                timeit (fun () ->
                    Compiler.Passes.compile_plan ~plan rng b.Benchmarks.Suite.program)
              in
              match res with
              | Ok (out, _) ->
                let c = out.Compiler.Pipeline.circuit in
                ( t,
                  Some
                    {
                      count_2q = Circuit.count_2q c;
                      depth_2q = Circuit.depth_2q c;
                      duration = Isa.duration t c;
                      wall_s = wall;
                    } )
              | Error e ->
                incr failures;
                Printf.printf "  %s/%s failed: %s\n" b.Benchmarks.Suite.name
                  t.Isa.name (Robust.Err.to_string e);
                (t, None))
            targets
        in
        (b.Benchmarks.Suite.name, cells))
      suite
  in
  (* matrix: one row per bench, "#2Q/T" per target *)
  Printf.printf "  %-14s" "bench";
  List.iter (fun (t : Isa.target) -> Printf.printf " %14s" t.Isa.name) targets;
  Printf.printf "\n";
  List.iter
    (fun (bench, cells) ->
      Printf.printf "  %-14s" bench;
      List.iter
        (fun ((_ : Isa.target), cell) ->
          match cell with
          | Some c -> Printf.printf " %6d/%7.1f" c.count_2q c.duration
          | None -> Printf.printf " %14s" "-")
        cells;
      Printf.printf "\n")
    rows;
  (* the gate: on every bench, the reconfigurable ISA's 2Q count must be
     <= every fixed target's — retargeting can only cost gates, never
     save them, or the reconfigurable-ISA claim is broken *)
  let violations =
    List.concat_map
      (fun (bench, cells) ->
        match List.assoc_opt "native" (List.map (fun ((t : Isa.target), c) -> (t.Isa.name, c)) cells) with
        | Some (Some native) ->
          List.filter_map
            (fun ((t : Isa.target), cell) ->
              match cell with
              | Some c when t.Isa.name <> "native" && c.count_2q < native.count_2q ->
                Some (Printf.sprintf "%s: %s %d < native %d" bench t.Isa.name c.count_2q native.count_2q)
              | _ -> None)
            cells
        | _ -> [ Printf.sprintf "%s: no native result" bench ])
      rows
  in
  let beats_fixed = violations = [] && rows <> [] in
  gate "native beats fixed" beats_fixed;
  List.iter (fun v -> Printf.printf "  violation: %s\n" v) violations;
  let compiles_ok = !failures = 0 in
  gate "all compiles ok" compiles_ok;
  let cell_json = function
    | Some c ->
      Json.Obj
        [
          ("count_2q", int c.count_2q); ("depth_2q", int c.depth_2q);
          ("duration", Json.Num c.duration); ("wall_seconds", Json.Num c.wall_s);
        ]
    | None -> Json.Null
  in
  write_json ~tag:"isa" "BENCH_isa.json"
    (Json.Obj
       [
         ( "workload",
           Json.Obj
             [
               ("benches", int (List.length rows));
               ("targets", Json.Arr (List.map (fun (t : Isa.target) -> Json.Str t.Isa.name) targets));
             ] );
         ("compiles_failed", int !failures);
         ("native_beats_fixed", Json.Bool beats_fixed);
         ("pass", Json.Bool (beats_fixed && compiles_ok));
         ( "matrix",
           Json.Obj
             (List.map
                (fun (bench, cells) ->
                  ( bench,
                    Json.Obj
                      (List.map (fun ((t : Isa.target), cell) -> (t.Isa.name, cell_json cell)) cells)
                  ))
                rows) );
       ]);
  csv "isa_matrix"
    ("bench" :: List.concat_map (fun (t : Isa.target) ->
         [ t.Isa.name ^ "_2q"; t.Isa.name ^ "_duration" ]) targets)
    (List.map
       (fun (bench, cells) ->
         bench
         :: List.concat_map
              (fun ((_ : Isa.target), cell) ->
                match cell with
                | Some c -> [ string_of_int c.count_2q; Printf.sprintf "%.4f" c.duration ]
                | None -> [ "-"; "-" ])
              cells)
       rows)
