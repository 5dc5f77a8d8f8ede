type config = {
  workers : int;
  cache_path : string option;
  seed : int64;
}

let default_config =
  {
    workers = 0;
    cache_path = None;
    seed = 1L;
  }

type summary = { served : int; errors : int; elapsed : float }

let open_cache config =
  match config.cache_path with
  | None -> Ok None
  | Some path -> (
    match Cache.create ~path () with
    | Ok c -> Ok (Some c)
    | Error e -> Error e)

let run ?(config = default_config) ic oc =
  let t0 = Unix.gettimeofday () in
  match open_cache config with
  | Error e -> Error e
  | Ok cache ->
    let engine =
      Engine.create ~workers:config.workers ?cache ~seed:config.seed ()
    in
    let out_lock = Mutex.create () in
    let respond response =
      let line = Json.to_string response in
      Mutex.lock out_lock;
      output_string oc line;
      output_char oc '\n';
      flush oc;
      Mutex.unlock out_lock
    in
    let rec read_loop () =
      match input_line ic with
      | exception End_of_file -> ()
      | line ->
        if String.trim line = "" then read_loop ()
        else begin
          let p = Protocol.parse_line line in
          Engine.submit engine p ~respond;
          match p.body with
          | Ok { op = Protocol.Shutdown; _ } -> () (* stop reading; drain *)
          | _ -> read_loop ()
        end
    in
    read_loop ();
    Engine.drain engine;
    flush oc;
    Ok
      {
        served = Engine.served engine;
        errors = Engine.errors engine;
        elapsed = Unix.gettimeofday () -. t0;
      }
