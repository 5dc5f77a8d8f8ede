type event = { qubits : int * int; start : float; pulse : Genashn.pulse }
type t = { n : int; events : event list; makespan : float }

let schedule coupling (c : Circuit.t) =
  let wire_free = Array.make c.n 0.0 in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | (g : Gate.t) :: rest ->
      if not (Gate.is_2q g) then go acc rest
      else begin
        match
          Result.bind (Weyl.Kak.coords_of_r g.mat) (fun coords ->
              Robust.Outcome.to_result (Genashn.solve_coords_r coupling coords))
        with
        | Error e -> Error e
        | Ok pulse ->
          let a = g.qubits.(0) and b = g.qubits.(1) in
          let start = Float.max wire_free.(a) wire_free.(b) in
          let finish = start +. pulse.Genashn.tau in
          wire_free.(a) <- finish;
          wire_free.(b) <- finish;
          go ({ qubits = (a, b); start; pulse } :: acc) rest
      end
  in
  match go [] c.gates with
  | Error e -> Error e
  | Ok events ->
    let makespan = Array.fold_left Float.max 0.0 wire_free in
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
      Buffer.add_string buf
        (Printf.sprintf "%10.4f  (%d,%d)  %6s %10.4f %10.4f %10.4f %10.4f\n" e.start
           (fst e.qubits) (snd e.qubits)
           (Tau.subscheme_to_string p.Genashn.subscheme)
           p.Genashn.tau
           (-2.0 *. p.Genashn.drive_x1)
           (-2.0 *. p.Genashn.drive_x2)
           p.Genashn.delta))
    s.events;
  Buffer.contents buf
