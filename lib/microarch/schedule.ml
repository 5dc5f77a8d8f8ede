type event = { qubits : int * int; start : float; pulse : Genashn.pulse }
type t = { n : int; events : event list; makespan : float }

let solve coupling (g : Gate.t) =
  Result.bind (Gate.kak g) (fun d ->
      Robust.Outcome.to_result (Genashn.solve_coords_r coupling d.Weyl.Kak.coords))

(* the pulses of the 2Q gates, in circuit order; the first failure is the
   error *)
let rec solve_all coupling acc = function
  | [] -> Ok (List.rev acc)
  | g :: rest -> (
    match solve coupling g with
    | Error e -> Error e
    | Ok pulse -> solve_all coupling (pulse :: acc) rest)

let schedule coupling (c : Circuit.t) =
  (* 1Q gates are zero-duration phase updates that hold no wire, so the
     schedule of the 2Q gates alone is the circuit's *)
  let twoq = Circuit.create c.n (List.filter Gate.is_2q c.gates) in
  match solve_all coupling [] twoq.gates with
  | Error e -> Error e
  | Ok pulses ->
    (* the schedule applies [tau] once per gate, in circuit order: the
       order the pulses were solved in *)
    let pending = ref pulses in
    let tau _ =
      match !pending with
      | pulse :: rest ->
        pending := rest;
        pulse.Genashn.tau
      | [] -> assert false
    in
    let slots, makespan = Circuit.schedule ~tau twoq in
    let events =
      List.map2
        (fun (s : Circuit.slot) pulse ->
          { qubits = (s.gate.qubits.(0), s.gate.qubits.(1)); start = s.start; pulse })
        slots pulses
    in
    Ok { n = c.n; events = List.sort (fun a b -> compare a.start b.start) events; makespan }

let to_string s =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "pulse schedule: %d qubits, %d pulses, makespan %.4f /g\n" s.n
       (List.length s.events) s.makespan);
  Buffer.add_string buf
    (Printf.sprintf "%10s %8s %6s %10s %10s %10s %10s\n" "t_start" "qubits" "mode"
       "tau" "A1" "A2" "delta");
  List.iter
    (fun e ->
      let p = e.pulse in
      let a1, a2 = Genashn.amplitudes p in
      Buffer.add_string buf
        (Printf.sprintf "%10.4f  (%d,%d)  %6s %10.4f %10.4f %10.4f %10.4f\n" e.start
           (fst e.qubits) (snd e.qubits)
           (Tau.subscheme_to_string p.Genashn.subscheme)
           p.Genashn.tau a1 a2 p.Genashn.delta))
    s.events;
  Buffer.contents buf
