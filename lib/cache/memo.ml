type ('k, 'v) t = { lru : ('k, 'v) Lru.t; lock : Mutex.t }

let create ~capacity = { lru = Lru.create ~capacity; lock = Mutex.create () }

let find_or_compute t ~stage key f =
  if Robust.Fault.enabled () then f ()
  else
    match Mutex.protect t.lock (fun () -> Lru.find t.lru key) with
    | Some v ->
      Robust.Counters.incr ~stage "memo_hit";
      v
    | None ->
      Robust.Counters.incr ~stage "memo_miss";
      let v = f () in
      (* faults armed while it ran may have shaped this value *)
      if not (Robust.Fault.enabled ()) then begin
        match Mutex.protect t.lock (fun () -> Lru.add t.lru key v) with
        | Some _ -> Robust.Counters.incr ~stage "memo_evict"
        | None -> ()
      end;
      v

let length t = Mutex.protect t.lock (fun () -> Lru.length t.lru)
let clear t = Mutex.protect t.lock (fun () -> Lru.clear t.lru)
