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

(* -------------------------------------------------- robustness report *)

(* per-gate solver verdicts collected by table2: (bench, [(gate, kind)]) *)
let robust_gate_outcomes : (string * (string * string) list) list ref = ref []

let note_gate_outcomes bench kinds =
  robust_gate_outcomes := (bench, kinds) :: !robust_gate_outcomes

(* BENCH_robust.json: per-stage retry/fallback/degradation counters, the
   active fault spec, and table2's per-gate solver outcomes. Written after
   every bench run; stdout stays untouched unless fault injection is armed,
   so fault-free runs remain bit-identical to the plain harness. *)
let write_robust_json path =
  let buf = Buffer.create 2048 in
  let bpf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  bpf "{\n";
  bpf "  \"faults\": %s,\n"
    (if Robust.Fault.enabled () then Printf.sprintf "%S" (Robust.Fault.spec_string ())
     else "null");
  bpf "  \"fault_hits\": {";
  List.iteri
    (fun i (site, n) -> bpf "%s%S: %d" (if i = 0 then "" else ", ") site n)
    (Robust.Fault.hits ());
  bpf "},\n";
  bpf "  \"counters\": %s,\n" (Robust.Counters.to_json ());
  bpf "  \"table2_gate_outcomes\": [\n";
  let entries = List.rev !robust_gate_outcomes in
  List.iteri
    (fun i (bench, kinds) ->
      bpf "    {\"bench\": %S, \"gates\": [" bench;
      List.iteri
        (fun j (gate, kind) ->
          bpf "%s{\"gate\": %S, \"outcome\": %S}" (if j = 0 then "" else ", ") gate kind)
        kinds;
      bpf "]}%s\n" (if i = List.length entries - 1 then "" else ","))
    entries;
  bpf "  ]\n";
  bpf "}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  if Robust.Fault.enabled () then
    Printf.printf "  [robust] wrote %s (faults: %s)\n%!" path
      (Robust.Fault.spec_string ())

(* ------------------------------------------ serve-bench shared helpers *)

(* classes the pulse solver computed: root searches plus class-memo hits,
   which stand in for them *)
let class_computations () =
  Robust.Counters.get ~stage:"genashn" "solve_run"
  + Robust.Counters.get ~stage:"genashn" "memo_hit"

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

(* printf into a report buffer ([build] callbacks bind it locally so the
   format type stays polymorphic) *)
let bprintf buf fmt = Printf.ksprintf (Buffer.add_string buf) fmt

(* Buffer-backed JSON report writer: [build] emits the members into the
   buffer (via {!bprintf}); the braces, the file write, and the "wrote"
   line are the shared part every BENCH_*.json used to copy *)
let write_json_report ~tag path build =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "{\n";
  build buf;
  Buffer.add_string buf "}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "  [%s] wrote %s\n%!" tag path

(* socket server on a background thread: wait for the ready signal, run
   [f] against the actual bound address (so tcp:HOST:0 workloads see the
   kernel-assigned port), then shut down over the wire and join.
   [before_shutdown] runs after [f] — the chaos bench disarms fault
   injection there so an armed frame_drop cannot eat the shutdown
   response. Returns the server summary alongside [f]'s result. *)
let with_net_server ~tag ~config ?(before_shutdown = fun () -> ())
    ?(shutdown_retries = 0) addr f =
  let ready = Atomic.make false in
  let actual = ref addr in
  let result = ref (Error "server did not return") in
  let server =
    Thread.create
      (fun () ->
        result :=
          Serve.Transport.serve ~config
            ~ready:(fun a ->
              actual := a;
              Atomic.set ready true)
            addr)
      ()
  in
  while not (Atomic.get ready) do
    Thread.delay 0.002
  done;
  let out = f !actual in
  before_shutdown ();
  (match
     Serve.Client.rpc ~retries:shutdown_retries !actual
       (Serve.Json.Obj [ ("op", Serve.Json.Str "shutdown") ])
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
