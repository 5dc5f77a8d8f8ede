(* Shared helpers for the benchmark harness. *)

let hr title =
  Printf.printf "\n==================== %s ====================\n%!" title

let sub title = Printf.printf "\n---- %s ----\n%!" title

let timeit f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let geomean = function
  | [] -> nan
  | xs ->
    exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs /. float_of_int (List.length xs))

let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let paper line = Printf.printf "  [paper] %s\n%!" line

(* permutation fix for circuits that end with a tracked wire mapping *)
let arrange_matrix n (m : int array) =
  let dim = 1 lsl n in
  Numerics.Mat.init dim dim (fun y x ->
      let ok = ref true in
      for l = 0 to n - 1 do
        if (y lsr (n - 1 - m.(l))) land 1 <> (x lsr (n - 1 - l)) land 1 then ok := false
      done;
      if !ok then Numerics.Cx.one else Numerics.Cx.zero)

let xy = Microarch.Coupling.xy ~g:1.0
let su4_isa = Compiler.Metrics.Su4_isa xy
let cnot_isa = Compiler.Metrics.Cnot_isa

(* ------------------------------------------------------- JSON reports *)

module Json = Robust.Json

let int n = Json.Num (float_of_int n)

(* every BENCH_*.json report: one compact line, then a "wrote" line on
   stdout *)
let write_json ~tag path v =
  let oc = open_out path in
  output_string oc (Json.to_string v);
  output_char oc '\n';
  close_out oc;
  Printf.printf "  [%s] wrote %s\n%!" tag path

(* -------------------------------------------------- robustness report *)

(* per-gate solver verdicts collected by table2: (bench, [(gate, kind)]) *)
let robust_gate_outcomes : (string * (string * string) list) list ref = ref []

let note_gate_outcomes bench kinds =
  robust_gate_outcomes := (bench, kinds) :: !robust_gate_outcomes

(* BENCH_robust.json: per-stage retry/fallback/degradation counters, the
   active fault spec, and table2's per-gate solver outcomes. Written after
   every bench run. *)
let robust_json () =
  let outcome (gate, kind) = Json.Obj [ ("gate", Json.Str gate); ("outcome", Json.Str kind) ] in
  Json.Obj
    [
      ( "faults",
        if Robust.Fault.enabled () then Json.Str (Robust.Fault.spec_string ()) else Json.Null );
      ("fault_hits", Json.Obj (List.map (fun (site, n) -> (site, int n)) (Robust.Fault.hits ())));
      ("counters", Robust.Counters.to_json ());
      ( "table2_gate_outcomes",
        Json.Arr
          (List.rev_map
             (fun (bench, kinds) ->
               Json.Obj [ ("bench", Json.Str bench); ("gates", Json.Arr (List.map outcome kinds)) ])
             !robust_gate_outcomes) );
    ]

(* ------------------------------------------ serve-bench shared helpers *)

(* latency percentile over an ascending-sorted sample list *)
let percentile sorted p =
  match sorted with
  | [] -> 0.0
  | _ ->
    let arr = Array.of_list sorted in
    let n = Array.length arr in
    arr.(min (n - 1) (int_of_float ((p *. float_of_int (n - 1)) +. 0.5)))

(* gate verdict line shared by the gated serve benches *)
let gate name ok =
  Printf.printf "  gate %-22s %s\n" name (if ok then "PASS" else "FAIL")

(* socket server on a background thread: wait for the ready signal, run
   [f] against the actual bound address (so tcp:HOST:0 workloads see the
   kernel-assigned port), then shut down over the wire and join. A
   server that returns without becoming ready (cache or bind failure)
   fails with its own error instead of leaving the wait spinning.
   [before_shutdown] runs after [f] — the chaos bench disarms fault
   injection there so an armed frame_drop cannot eat the shutdown
   response. Returns the server summary alongside [f]'s result. *)
let with_net_server ~tag ~config ?(before_shutdown = fun () -> ())
    ?(shutdown_retries = 0) addr f =
  let ready = Atomic.make false and finished = Atomic.make false in
  let actual = ref addr in
  let result = ref (Error "server did not return") in
  let server =
    Thread.create
      (fun () ->
        Fun.protect
          ~finally:(fun () -> Atomic.set finished true)
          (fun () ->
            result :=
              Serve.Transport.serve ~config
                ~ready:(fun a ->
                  actual := a;
                  Atomic.set ready true)
                addr))
      ()
  in
  while not (Atomic.get ready || Atomic.get finished) do
    Thread.delay 0.002
  done;
  if not (Atomic.get ready) then begin
    Thread.join server;
    match !result with
    | Error e -> failwith (tag ^ ": server failed to start: " ^ e)
    | Ok _ -> failwith (tag ^ ": server returned before it was ready")
  end;
  let out = f !actual in
  before_shutdown ();
  (match
     Serve.Client.rpc ~retries:shutdown_retries !actual
       (Json.Obj [ ("op", Json.Str "shutdown") ])
   with
  | Ok _ -> ()
  | Error e -> failwith (tag ^ ": shutdown: " ^ Serve.Client.error_to_string e));
  Thread.join server;
  match !result with
  | Error e -> failwith (tag ^ ": server failed: " ^ e)
  | Ok summary -> (summary, out)

(* optional CSV mirroring of the printed results (artifact-style outputs) *)
let csv_dir : string option ref = ref None

let csv name header rows =
  match !csv_dir with
  | None -> ()
  | Some dir ->
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    let oc = open_out (Filename.concat dir (name ^ ".csv")) in
    output_string oc (String.concat "," header ^ "\n");
    List.iter (fun row -> output_string oc (String.concat "," row ^ "\n")) rows;
    close_out oc;
    Printf.printf "  [csv] wrote %s/%s.csv (%d rows)\n%!" dir name (List.length rows)
