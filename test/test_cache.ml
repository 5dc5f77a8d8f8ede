(* Content-addressed pulse cache: fingerprint stability, LRU bounds, the
   crash-safe on-disk store, the tiered cache, and the end-to-end solver
   round trip (a warm hit replays the cold pulse bit-for-bit and still
   reproduces the target unitary). *)

open Numerics

let xy = Microarch.Coupling.xy ~g:1.0

let tmp_path suffix =
  let p = Filename.temp_file "reqisc_test" suffix in
  Sys.remove p;
  p

let cleanup path = if Sys.file_exists path then Sys.remove path

(* ---------------------------------------------------------- fingerprint *)

let test_fp_quantization () =
  let key vs = Cache.Fingerprint.(key (floats (create "t.v1") vs)) in
  Alcotest.(check string) "sub-quantum noise collapses" (key [| 0.5; 0.25 |])
    (key [| 0.5 +. 1e-13; 0.25 -. 1e-13 |]);
  Alcotest.(check bool) "distinct values stay distinct" true
    (key [| 0.5; 0.25 |] <> key [| 0.5 +. 1e-6; 0.25 |]);
  let weird = key [| Float.nan; Float.infinity; Float.neg_infinity |] in
  Alcotest.(check bool) "non-finite encodes without raising" true
    (String.length weird > 0);
  Alcotest.(check bool) "nan and inf differ" true
    (key [| Float.nan |] <> key [| Float.infinity |])

let test_fp_self_delimiting () =
  let open Cache.Fingerprint in
  Alcotest.(check bool) "string splits do not collide" true
    (key (str (str (create "t") "ab") "c") <> key (str (str (create "t") "a") "bc"));
  Alcotest.(check bool) "tag is part of the key" true
    (key (create "a.v1") <> key (create "a.v2"));
  Alcotest.(check bool) "int vs float field differ" true
    (key (int (create "t") 1) <> key (float (create "t") 1.0))

let test_fp_unitary_phase_invariant () =
  let u = Quantum.Gates.cnot in
  let phase = Cx.expi 0.7 in
  let v = Mat.init (Mat.rows u) (Mat.cols u) (fun r c -> Cx.( *: ) phase (Mat.get u r c)) in
  let fp m = Cache.Fingerprint.(key (unitary (create "t") m)) in
  Alcotest.(check string) "global phase drops out" (fp u) (fp v);
  Alcotest.(check bool) "different gates differ" true
    (fp Quantum.Gates.cnot <> fp Quantum.Gates.iswap)

(* ------------------------------------------------------------------ lru *)

let test_lru_bounds () =
  let l = Cache.Lru.create ~capacity:3 in
  Alcotest.(check (option (pair string int))) "no eviction below cap" None
    (Cache.Lru.add l "a" 1);
  ignore (Cache.Lru.add l "b" 2);
  ignore (Cache.Lru.add l "c" 3);
  (* touch "a" so "b" is now the LRU entry *)
  Alcotest.(check (option int)) "find promotes" (Some 1) (Cache.Lru.find l "a");
  (match Cache.Lru.add l "d" 4 with
  | Some ("b", 2) -> ()
  | Some (k, _) -> Alcotest.failf "evicted %S, expected \"b\"" k
  | None -> Alcotest.fail "expected an eviction at capacity");
  Alcotest.(check int) "length stays bounded" 3 (Cache.Lru.length l);
  Alcotest.(check (list string)) "recency order" [ "d"; "a"; "c" ] (Cache.Lru.keys l);
  Alcotest.(check (option int)) "evicted key gone" None (Cache.Lru.find l "b")

(* ---------------------------------------------------------------- store *)

let append_records path records =
  match Cache.Store.open_writer path ~valid_bytes:0 with
  | Error e -> Alcotest.failf "open_writer: %s" e
  | Ok w ->
    List.iter (fun (key, value) -> Cache.Store.append w { Cache.Store.key; value }) records;
    let n = Cache.Store.written_bytes w in
    Cache.Store.close_writer w;
    n

let test_store_roundtrip () =
  let path = tmp_path ".rqcache" in
  let records = [ ("k1", "v1"); ("k2", String.make 1000 'x'); ("k1", "v1'") ] in
  let written = append_records path records in
  (match Cache.Store.load path with
  | Error e -> Alcotest.failf "load: %s" e
  | Ok r ->
    Alcotest.(check int) "all records back" 3 (List.length r.Cache.Store.records);
    Alcotest.(check int) "valid prefix is whole file" written r.Cache.Store.valid_bytes;
    Alcotest.(check int) "no torn bytes" 0 r.Cache.Store.torn_bytes;
    Alcotest.(check (list (pair string string))) "append order, dups kept"
      records
      (List.map (fun (x : Cache.Store.record) -> (x.key, x.value)) r.Cache.Store.records));
  cleanup path

let test_store_torn_tail () =
  let path = tmp_path ".rqcache" in
  let written = append_records path [ ("k1", "v1"); ("k2", "v2") ] in
  (* simulate a crash mid-append: garbage half-frame at the tail *)
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc "\x40\x00\x00\x00torn";
  close_out oc;
  (match Cache.Store.load path with
  | Error e -> Alcotest.failf "load after tear: %s" e
  | Ok r ->
    Alcotest.(check int) "intact prefix survives" 2 (List.length r.Cache.Store.records);
    Alcotest.(check int) "valid bytes stop at tear" written r.Cache.Store.valid_bytes;
    Alcotest.(check int) "tear measured" 8 r.Cache.Store.torn_bytes;
    (* reopening for append drops the tear exactly once *)
    (match Cache.Store.open_writer path ~valid_bytes:r.Cache.Store.valid_bytes with
    | Error e -> Alcotest.failf "open_writer after tear: %s" e
    | Ok w ->
      Cache.Store.append w { Cache.Store.key = "k3"; value = "v3" };
      Cache.Store.close_writer w);
    match Cache.Store.load path with
    | Error e -> Alcotest.failf "reload: %s" e
    | Ok r ->
      Alcotest.(check int) "tear gone, append landed" 3 (List.length r.Cache.Store.records);
      Alcotest.(check int) "file clean again" 0 r.Cache.Store.torn_bytes);
  cleanup path

let test_store_corrupt_checksum () =
  let path = tmp_path ".rqcache" in
  ignore (append_records path [ ("k1", "v1"); ("k2", "v2") ]);
  (* flip one byte inside the second record's payload *)
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let bytes = Bytes.create len in
  really_input ic bytes 0 len;
  close_in ic;
  Bytes.set bytes (len - 1) (Char.chr (Char.code (Bytes.get bytes (len - 1)) lxor 0xff));
  let oc = open_out_bin path in
  output_bytes oc bytes;
  close_out oc;
  (match Cache.Store.load path with
  | Error e -> Alcotest.failf "load after corruption: %s" e
  | Ok r ->
    Alcotest.(check int) "prefix before bad checksum kept" 1
      (List.length r.Cache.Store.records);
    Alcotest.(check bool) "corruption counted as torn" true (r.Cache.Store.torn_bytes > 0));
  (match Cache.Store.load "/dev/null" with
  | Ok r -> Alcotest.(check int) "empty file loads empty" 0 (List.length r.Cache.Store.records)
  | Error e -> Alcotest.failf "empty file: %s" e);
  cleanup path

let test_store_corrupt_midfile () =
  let path = tmp_path ".rqcache" in
  ignore (append_records path [ ("k1", "v1"); ("k2", "v2"); ("k3", "v3") ]);
  (* flip a byte inside the FIRST record's payload: framing stays intact
     and valid records follow, so only that record may be dropped — bit
     rot mid-file must not discard the valid tail behind it *)
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let bytes = Bytes.create len in
  really_input ic bytes 0 len;
  close_in ic;
  (* 8B magic + 8B frame header + 4B key_len puts offset 21 in "k1" *)
  Bytes.set bytes 21 (Char.chr (Char.code (Bytes.get bytes 21) lxor 0xff));
  let oc = open_out_bin path in
  output_bytes oc bytes;
  close_out oc;
  (match Cache.Store.load path with
  | Error e -> Alcotest.failf "load after mid-file corruption: %s" e
  | Ok r ->
    Alcotest.(check (list (pair string string))) "records behind the rot survive"
      [ ("k2", "v2"); ("k3", "v3") ]
      (List.map (fun (x : Cache.Store.record) -> (x.key, x.value)) r.Cache.Store.records);
    Alcotest.(check int) "skip counted" 1 r.Cache.Store.corrupt_records;
    Alcotest.(check int) "not treated as torn" 0 r.Cache.Store.torn_bytes;
    Alcotest.(check int) "whole file scanned" len r.Cache.Store.valid_bytes);
  cleanup path

let test_store_short_write_fault () =
  Robust.Fault.configure None;
  let path = tmp_path ".rqcache" in
  let clean = append_records path [ ("k1", "v1"); ("k2", "v2") ] in
  (match Cache.Store.open_writer path ~valid_bytes:clean with
  | Error e -> Alcotest.failf "open_writer: %s" e
  | Ok w ->
    (* the injected crash: the next append writes half a frame and wedges
       the writer — as if the process died mid-write *)
    Robust.Fault.configure (Some "store_short_write:1");
    Cache.Store.append w { Cache.Store.key = "k3"; value = String.make 64 'z' };
    Alcotest.(check bool) "writer wedged" true (Cache.Store.wedged w);
    (* a dead process writes nothing more *)
    Cache.Store.append w { Cache.Store.key = "k4"; value = "v4" };
    Cache.Store.close_writer w;
    Robust.Fault.configure None);
  (match Cache.Store.load path with
  | Error e -> Alcotest.failf "load after kill: %s" e
  | Ok r ->
    Alcotest.(check (list (pair string string))) "pre-kill records bit-identical"
      [ ("k1", "v1"); ("k2", "v2") ]
      (List.map (fun (x : Cache.Store.record) -> (x.key, x.value)) r.Cache.Store.records);
    Alcotest.(check int) "half-frame is a torn tail" clean r.Cache.Store.valid_bytes;
    Alcotest.(check bool) "tear measured" true (r.Cache.Store.torn_bytes > 0));
  cleanup path

let test_store_sync_policies () =
  Alcotest.(check bool) "default is periodic fsync" true
    (match Cache.Store.default_sync with Cache.Store.Interval s -> s > 0.0 | _ -> false);
  List.iter
    (fun sync ->
      let path = tmp_path ".rqcache" in
      (match Cache.Store.open_writer ~sync path ~valid_bytes:0 with
      | Error e -> Alcotest.failf "open_writer: %s" e
      | Ok w ->
        Cache.Store.append w { Cache.Store.key = "k"; value = "v" };
        Cache.Store.sync_now w;
        Alcotest.(check bool) "not wedged" false (Cache.Store.wedged w);
        Cache.Store.close_writer w);
      (match Cache.Store.load path with
      | Error e -> Alcotest.failf "load: %s" e
      | Ok r ->
        Alcotest.(check int) "record durable under every policy" 1
          (List.length r.Cache.Store.records));
      cleanup path)
    [ Cache.Store.Never; Cache.Store.Interval 0.01; Cache.Store.Always ]

let test_store_bad_magic () =
  let path = tmp_path ".rqcache" in
  let oc = open_out_bin path in
  output_string oc "definitely not a cache store";
  close_out oc;
  (match Cache.Store.load path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected Error for a non-store file");
  cleanup path

(* --------------------------------------------------------------- tiered *)

(* one index holds every key, disk-backed or memory-only: with no LRU tier
   nothing is evicted, so no key added is ever lost while the cache is open *)
let tiered_kvs = List.init 100 (fun i -> (Printf.sprintf "k%03d" i, string_of_int i))

let tiered_fill c =
  List.iter (fun (k, v) -> Cache.add c k v) tiered_kvs;
  List.iter
    (fun (k, v) -> Alcotest.(check (option string)) ("found " ^ k) (Some v) (Cache.find c k))
    tiered_kvs;
  Alcotest.(check (option string)) "miss is a miss" None (Cache.find c "zzz");
  let s = Cache.stats c in
  Alcotest.(check int) "keys reported" (List.length tiered_kvs) s.Cache.keys;
  Alcotest.(check int) "hits counted" (List.length tiered_kvs) s.Cache.hits;
  Alcotest.(check int) "miss counted" 1 s.Cache.misses

(* disk-backed: every key is held, and a reopened store falls back to the
   frames on disk to find them all again *)
let test_tiered_eviction_disk_fallback () =
  let path = tmp_path ".rqcache" in
  (match Cache.create ~path () with
  | Error e -> Alcotest.failf "create: %s" e
  | Ok c ->
    tiered_fill c;
    Alcotest.(check int) "one frame per key" (List.length tiered_kvs)
      (Cache.stats c).Cache.file_records;
    Cache.close c);
  (* reload from disk: every key persisted *)
  (match Cache.create ~path () with
  | Error e -> Alcotest.failf "reopen: %s" e
  | Ok c ->
    Alcotest.(check int) "keys reloaded" (List.length tiered_kvs) (Cache.stats c).Cache.keys;
    List.iter
      (fun (k, v) -> Alcotest.(check (option string)) ("reloaded " ^ k) (Some v) (Cache.find c k))
      tiered_kvs;
    Cache.close c);
  cleanup path

let test_tiered_compaction () =
  let path = tmp_path ".rqcache" in
  (match Cache.create ~path () with
  | Error e -> Alcotest.failf "create: %s" e
  | Ok c ->
    (* three updates of "a" -> three physical frames for one key *)
    Cache.add c "a" "1";
    Cache.add c "a" "2";
    Cache.add c "a" "3";
    Cache.add c "b" "long-lived";
    let s = Cache.stats c in
    Alcotest.(check int) "distinct keys" 2 s.Cache.keys;
    Alcotest.(check int) "duplicates on disk" 4 s.Cache.file_records;
    let before_bytes = s.Cache.disk_bytes in
    (match Cache.compact c with
    | Error e -> Alcotest.failf "compact: %s" e
    | Ok bytes ->
      Alcotest.(check bool) "file shrank" true (bytes < before_bytes);
      let s = Cache.stats c in
      Alcotest.(check int) "one frame per key" 2 s.Cache.file_records;
      Alcotest.(check int) "keys kept" 2 s.Cache.keys;
      Alcotest.(check int) "size reported" bytes s.Cache.disk_bytes;
      Alcotest.(check int) "compaction counted" 1 s.Cache.compactions);
    (* latest value wins, cache stays usable, appends still land *)
    Alcotest.(check (option string)) "latest value" (Some "3") (Cache.find c "a");
    Cache.add c "c" "post-compact";
    Cache.close c);
  (* a fresh process sees the compacted file + the post-compact append *)
  (match Cache.create ~path () with
  | Error e -> Alcotest.failf "reopen: %s" e
  | Ok c ->
    List.iter
      (fun (k, v) ->
        Alcotest.(check (option string)) ("reloaded " ^ k) (Some v) (Cache.find c k))
      [ ("a", "3"); ("b", "long-lived"); ("c", "post-compact") ];
    Alcotest.(check int) "no tear from the rewrite" 0 (Cache.stats c).Cache.torn_bytes;
    Cache.close c);
  cleanup path

let test_tiered_memory_only () =
  match Cache.create () with
  | Error e -> Alcotest.failf "create memory-only: %s" e
  | Ok c ->
    tiered_fill c;
    Alcotest.(check int) "memory-only writes no file" 0 (Cache.stats c).Cache.disk_bytes;
    Cache.close c

(* ------------------------------------------------------- pulse entries *)

let test_pulse_entry_codec () =
  let e =
    {
      Microarch.Pulse_cache.solved = false;
      scheme = 2;
      tau = 1.234567890123456;
      x1 = -0.5;
      x2 = 0.25;
      delta = Float.pi;
      residual = 3.2e-5;
      retries = 7;
      note = "ea retry g*1.01";
    }
  in
  (match Microarch.Pulse_cache.decode (Microarch.Pulse_cache.encode e) with
  | None -> Alcotest.fail "decode of fresh encode failed"
  | Some d ->
    Alcotest.(check bool) "bit-exact round trip" true
      (d.Microarch.Pulse_cache.solved = e.Microarch.Pulse_cache.solved
      && d.Microarch.Pulse_cache.scheme = e.Microarch.Pulse_cache.scheme
      && Int64.bits_of_float d.Microarch.Pulse_cache.tau
         = Int64.bits_of_float e.Microarch.Pulse_cache.tau
      && Int64.bits_of_float d.Microarch.Pulse_cache.delta
         = Int64.bits_of_float e.Microarch.Pulse_cache.delta
      && d.Microarch.Pulse_cache.retries = e.Microarch.Pulse_cache.retries
      && d.Microarch.Pulse_cache.note = e.Microarch.Pulse_cache.note));
  Alcotest.(check bool) "truncated bytes decode to None" true
    (Microarch.Pulse_cache.decode
       (String.sub (Microarch.Pulse_cache.encode e) 0 10)
    = None);
  Alcotest.(check bool) "garbage decodes to None" true
    (Microarch.Pulse_cache.decode "garbage" = None)

(* ------------------------------------------------- solver round trip *)

let pulse_bits (p : Microarch.Genashn.pulse) =
  List.map Int64.bits_of_float
    [
      p.Microarch.Genashn.tau; p.Microarch.Genashn.drive_x1;
      p.Microarch.Genashn.drive_x2; p.Microarch.Genashn.delta;
    ]

let solve_gate gate =
  match Microarch.Genashn.solve_r xy (Gate.su4 0 1 gate) with
  | Robust.Outcome.Solved r -> r
  | Robust.Outcome.Degraded (r, _) -> r
  | Robust.Outcome.Failed e -> Alcotest.failf "solve failed: %s" (Robust.Err.to_string e)

(* a real program's worth of Weyl classes: the 2Q gates of alu_1
   compiled under eff *)
let alu_1_circuit () =
  let b =
    List.find
      (fun (b : Benchmarks.Suite.bench) -> b.Benchmarks.Suite.name = "alu_1")
      (Benchmarks.Suite.suite ())
  in
  let plan = Compiler.Passes.plan_of_mode Compiler.Passes.Eff in
  (fst (Expect.ok (Compiler.Passes.compile_plan ~plan (Rng.create 1L) b.Benchmarks.Suite.program)))
    .Compiler.Passes.circuit

(* the program's pulses through the facade, reduced to per-gate verdicts
   and IEEE bits so cold and warm passes compare byte for byte *)
let program_pulses cache circuit =
  Reqisc.with_pulse_cache cache (fun () ->
      List.map
        (fun (o : Reqisc.gate_outcome) ->
          match o.Reqisc.outcome with
          | Robust.Outcome.Solved i -> ("solved", pulse_bits i.Reqisc.pulse)
          | Robust.Outcome.Degraded (i, d) ->
            ( Printf.sprintf "degraded %Lx %d %s"
                (Int64.bits_of_float d.Robust.Outcome.residual)
                d.Robust.Outcome.retries d.Robust.Outcome.note,
              pulse_bits i.Reqisc.pulse )
          | Robust.Outcome.Failed e -> ("failed " ^ Robust.Err.to_string e, []))
        (Reqisc.pulse_outcomes xy circuit))

let test_solver_round_trip () =
  Robust.Fault.configure None;
  let path = tmp_path ".rqcache" in
  let gates = [ Quantum.Gates.cnot; Quantum.Gates.iswap; Quantum.Gates.b_gate ] in
  let program = alu_1_circuit () in
  (* cold: populate the cache *)
  let cold, cold_program =
    match Cache.create ~path () with
    | Error e -> Alcotest.failf "create: %s" e
    | Ok c ->
      let rs = Microarch.Pulse_cache.with_cache c (fun () -> List.map solve_gate gates) in
      let ps = program_pulses c program in
      Cache.close c;
      (rs, ps)
  in
  Alcotest.(check bool) "alu_1 has 2Q gates to pulse" true (cold_program <> []);
  (* warm: a fresh process would reload from disk; model that with a new
     cache instance over the same file *)
  (match Cache.create ~path () with
  | Error e -> Alcotest.failf "reopen: %s" e
  | Ok c ->
    Microarch.Pulse_cache.with_cache c (fun () ->
        let runs0 = Robust.Counters.get ~stage:"genashn" "solve_run" in
        let hits0 = Robust.Counters.get ~stage:"genashn" "cache_hit" in
        List.iter2
          (fun gate cold_r ->
            let warm_r = solve_gate gate in
            Alcotest.(check (list int64)) "warm pulse bit-identical to cold"
              (pulse_bits cold_r.Microarch.Genashn.pulse)
              (pulse_bits warm_r.Microarch.Genashn.pulse);
            (* the replayed pulse must still realize the target unitary *)
            let dist =
              Mat.frobenius_dist (Microarch.Genashn.reconstruct warm_r) gate
            in
            Alcotest.(check bool) "cached pulse reproduces target" true
              (dist < 1e-6))
          gates cold;
        Alcotest.(check int) "no solver runs on warm pass" runs0
          (Robust.Counters.get ~stage:"genashn" "solve_run");
        Alcotest.(check bool) "every warm solve was a hit" true
          (Robust.Counters.get ~stage:"genashn" "cache_hit" >= hits0 + 3));
    (* the reload path must serve a whole compiled program: no root
       search at all, and the pulses replay bit for bit *)
    let runs0 = Robust.Counters.get ~stage:"genashn" "solve_run" in
    let warm_program = program_pulses c program in
    Alcotest.(check int) "no solver runs on the warm program" runs0
      (Robust.Counters.get ~stage:"genashn" "solve_run");
    Alcotest.(check (list (pair string (list int64))))
      "warm program pulses bit-identical to cold" cold_program warm_program;
    Cache.close c);
  (* uninstalled again: behaviour reverts to plain solving *)
  Alcotest.(check bool) "no cache left installed" true
    (Microarch.Pulse_cache.installed () = None);
  cleanup path

(* A verdict an armed fault shaped is never stored: with [ea_noconv:1]
   armed, class (0.6, 0.5, 0.4) recovers only after a retry, and the
   store, reopened with the faults off, solves it afresh to [Solved]
   instead of replaying that recovery *)
let test_fault_verdict_not_stored () =
  Robust.Fault.configure None;
  let path = tmp_path ".rqcache" in
  let cls = Weyl.Coords.make 0.6 0.5 0.4 in
  (match Cache.create ~path () with
  | Error e -> Alcotest.failf "create: %s" e
  | Ok c ->
    Fun.protect
      ~finally:(fun () ->
        Robust.Fault.configure None;
        Cache.close c)
      (fun () ->
        Robust.Fault.configure (Some "ea_noconv:1");
        (match Microarch.Pulse_cache.with_cache c (fun () -> Microarch.Genashn.solve_coords_r xy cls) with
        | Robust.Outcome.Degraded (_, d) ->
          Alcotest.(check bool) "armed solve recovered by a retry" true
            (d.Robust.Outcome.retries >= 1)
        | _ -> Alcotest.fail "expected the armed solve to recover after a retry");
        Alcotest.(check int) "fault fired" 1 (List.assoc "ea_noconv" (Robust.Fault.hits ()));
        Alcotest.(check int) "nothing stored" 0 (Cache.stats c).Cache.inserts));
  (match Cache.create ~path () with
  | Error e -> Alcotest.failf "reopen: %s" e
  | Ok c ->
    let oc = Microarch.Pulse_cache.with_cache c (fun () -> Microarch.Genashn.solve_coords_r xy cls) in
    Cache.close c;
    match oc with
    | Robust.Outcome.Solved _ -> ()
    | _ -> Alcotest.fail "the reopened store must answer Solved");
  cleanup path

let test_cache_survives_corrupt_tail () =
  Robust.Fault.configure None;
  let path = tmp_path ".rqcache" in
  (match Cache.create ~path () with
  | Error e -> Alcotest.failf "create: %s" e
  | Ok c ->
    Microarch.Pulse_cache.with_cache c (fun () ->
        ignore (solve_gate Quantum.Gates.cnot));
    Cache.close c);
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc "\xff\xff\xff\xfftorn tail";
  close_out oc;
  (match Cache.create ~path () with
  | Error e -> Alcotest.failf "reopen torn: %s" e
  | Ok c ->
    Microarch.Pulse_cache.with_cache c (fun () ->
        let hits0 = Robust.Counters.get ~stage:"genashn" "cache_hit" in
        ignore (solve_gate Quantum.Gates.cnot);
        Alcotest.(check bool) "intact record still hits after tear" true
          (Robust.Counters.get ~stage:"genashn" "cache_hit" > hits0));
    let s = Cache.stats c in
    Alcotest.(check bool) "tear accounted" true (s.Cache.torn_bytes > 0);
    Cache.close c);
  cleanup path

let () =
  Alcotest.run "cache"
    [
      ( "fingerprint",
        [
          Alcotest.test_case "quantization" `Quick test_fp_quantization;
          Alcotest.test_case "self-delimiting" `Quick test_fp_self_delimiting;
          Alcotest.test_case "unitary phase invariance" `Quick
            test_fp_unitary_phase_invariant;
        ] );
      ( "lru",
        [ Alcotest.test_case "bounds and recency" `Quick test_lru_bounds ] );
      ( "store",
        [
          Alcotest.test_case "round trip" `Quick test_store_roundtrip;
          Alcotest.test_case "torn tail" `Quick test_store_torn_tail;
          Alcotest.test_case "corrupt checksum" `Quick test_store_corrupt_checksum;
          Alcotest.test_case "corrupt mid-file skip" `Quick test_store_corrupt_midfile;
          Alcotest.test_case "short-write kill" `Quick test_store_short_write_fault;
          Alcotest.test_case "sync policies" `Quick test_store_sync_policies;
          Alcotest.test_case "bad magic" `Quick test_store_bad_magic;
        ] );
      ( "tiered",
        [
          Alcotest.test_case "eviction + disk fallback" `Quick
            test_tiered_eviction_disk_fallback;
          Alcotest.test_case "compaction" `Quick test_tiered_compaction;
          Alcotest.test_case "memory-only" `Quick test_tiered_memory_only;
        ] );
      ( "pulse",
        [
          Alcotest.test_case "entry codec" `Quick test_pulse_entry_codec;
          Alcotest.test_case "solver round trip" `Quick test_solver_round_trip;
          Alcotest.test_case "fault verdict not stored" `Quick test_fault_verdict_not_stored;
          Alcotest.test_case "corrupt tail recovery" `Quick
            test_cache_survives_corrupt_tail;
        ] );
    ]
