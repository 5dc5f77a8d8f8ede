let stage = "cache"

type stats = {
  keys : int;
  file_records : int;
  disk_bytes : int;
  torn_bytes : int;
  corrupt_records : int;
  compactions : int;
  hits : int;
  misses : int;
  inserts : int;
}

type t = {
  lock : Mutex.t;
  index : (string, string) Hashtbl.t;  (* every key held, latest write wins *)
  mutable writer : Store.writer option;
  file : string option;
  sync : Store.sync;
  mutable torn_bytes : int;
  mutable file_records : int;  (* physical frames on disk, duplicates included *)
  mutable corrupt_records : int;
  mutable compactions : int;
  mutable hits : int;
  mutable misses : int;
  mutable inserts : int;
}

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let create ?(sync = Store.default_sync) ?path () =
  let open_disk path =
    match Store.load path with
    | Error e -> Error e
    | Ok { records; valid_bytes; torn_bytes; corrupt_records } -> (
      match Store.open_writer ~sync path ~valid_bytes with
      | Error e -> Error e
      | Ok writer ->
        let index = Hashtbl.create 1024 in
        List.iter (fun (r : Store.record) -> Hashtbl.replace index r.key r.value) records;
        Robust.Counters.add ~stage "load_records" (Hashtbl.length index);
        if torn_bytes > 0 then Robust.Counters.add ~stage "torn_bytes" torn_bytes;
        if corrupt_records > 0 then
          Robust.Counters.add ~stage "corrupt_records" corrupt_records;
        Ok (index, Some writer, torn_bytes, List.length records, corrupt_records))
  in
  match
    match path with
    | None -> Ok (Hashtbl.create 16, None, 0, 0, 0)
    | Some p -> open_disk p
  with
  | Error e -> Error e
  | Ok (index, writer, torn_bytes, file_records, corrupt_records) ->
    Ok
      {
        lock = Mutex.create ();
        index;
        writer;
        file = path;
        sync;
        torn_bytes;
        file_records;
        corrupt_records;
        compactions = 0;
        hits = 0;
        misses = 0;
        inserts = 0;
      }

let find t key =
  (* split-phase span: the probe is a "hit" or a "miss" *)
  let t0 = Obs.Span.now_ns () in
  let verdict, v =
    locked t (fun () ->
        match Hashtbl.find_opt t.index key with
        | Some v ->
          t.hits <- t.hits + 1;
          Robust.Counters.incr ~stage "hit";
          ("hit", Some v)
        | None ->
          t.misses <- t.misses + 1;
          Robust.Counters.incr ~stage "miss";
          ("miss", None))
  in
  Obs.Span.emit ~stage:"cache" ~name:verdict ~t0;
  v

let add t key value =
  Obs.Span.with_ ~stage:"cache" ~name:"insert" @@ fun () ->
  locked t (fun () ->
      t.inserts <- t.inserts + 1;
      Robust.Counters.incr ~stage "insert";
      (* the disk append is skipped when the key already holds these bytes *)
      if Hashtbl.find_opt t.index key <> Some value then begin
        Hashtbl.replace t.index key value;
        match t.writer with
        | None -> ()
        | Some w ->
          Store.append w { Store.key; value };
          t.file_records <- t.file_records + 1
      end)

(* Rewrite the file to one frame per live key (latest value wins, already
   what the index holds), dropping superseded duplicates, skipped corrupt
   records, and any torn tail. Atomic: temp + fsync + rename, with the old
   writer closed first and a fresh one opened on the new file. *)
let compact t =
  locked t (fun () ->
      match (t.file, t.writer) with
      | None, _ | _, None -> Ok 0
      | Some path, Some w -> (
        Store.close_writer w;
        t.writer <- None;
        let records =
          Hashtbl.fold (fun key value acc -> { Store.key; value } :: acc) t.index []
        in
        match Store.write_all path records with
        | Error e -> Error e
        | Ok bytes -> (
          match Store.open_writer ~sync:t.sync path ~valid_bytes:bytes with
          | Error e -> Error e
          | Ok w' ->
            t.writer <- Some w';
            t.file_records <- List.length records;
            t.torn_bytes <- 0;
            t.corrupt_records <- 0;
            t.compactions <- t.compactions + 1;
            Robust.Counters.incr ~stage "compact";
            Ok bytes)))

let path t = t.file

let stats t =
  locked t (fun () ->
      {
        keys = Hashtbl.length t.index;
        file_records = t.file_records;
        disk_bytes = (match t.writer with Some w -> Store.written_bytes w | None -> 0);
        torn_bytes = t.torn_bytes;
        corrupt_records = t.corrupt_records;
        compactions = t.compactions;
        hits = t.hits;
        misses = t.misses;
        inserts = t.inserts;
      })

let stats_json t =
  let s = stats t in
  let n v = Robust.Json.Num (float_of_int v) in
  Robust.Json.(
    Obj
      [
        ("path", match t.file with Some p -> Str p | None -> Null);
        ("keys", n s.keys); ("file_records", n s.file_records);
        ("disk_bytes", n s.disk_bytes); ("torn_bytes", n s.torn_bytes);
        ("corrupt_records", n s.corrupt_records); ("compactions", n s.compactions);
        ("hits", n s.hits); ("misses", n s.misses); ("inserts", n s.inserts);
      ])

let close t =
  locked t (fun () -> match t.writer with Some w -> Store.close_writer w | None -> ())
