open Numerics

type program = Gates of Circuit.t | Pauli of Phoenix.program

let program_to_cnot_input = function
  | Gates c -> Decomp.lower_to_cx c
  | Pauli p -> Phoenix.to_cx_circuit p

type ir =
  | Source of program
  | Ccx of Circuit.t
  | Su4 of Circuit.t
  | Mirrored of {
      circuit : Circuit.t;
      final_mapping : int array;
      mirrored : int;
    }
  | Can of Circuit.t
  | Native of { isa : string; circuit : Circuit.t }

let ir_form = function
  | Source _ -> "source"
  | Ccx _ -> "ccx"
  | Su4 _ -> "su4"
  | Mirrored _ -> "mirrored"
  | Can _ -> "can"
  | Native { isa; _ } -> "native:" ^ isa

let width = function
  | Source (Gates c) | Ccx c | Su4 c | Can c | Native { circuit = c; _ } ->
    c.Circuit.n
  | Source (Pauli p) -> p.Phoenix.n
  | Mirrored m -> m.circuit.Circuit.n

let circuit_of_ir = function
  | Source (Gates c) | Ccx c | Su4 c | Can c | Native { circuit = c; _ } ->
    Some c
  | Mirrored m -> Some m.circuit
  | Source (Pauli _) -> None

let count_2q ir =
  match circuit_of_ir ir with
  | Some c -> Circuit.count_2q_loose c
  | None -> -1

let depth_2q ir =
  match circuit_of_ir ir with Some c -> Circuit.depth_2q c | None -> -1

type ctx = { rng : Rng.t; lib : Template.library }

let make_ctx rng =
  (* one split, before anything else touches [rng]: the same RNG stream
     prefix the fused pipeline consumed, so plan runs replay it *)
  { rng; lib = Template.create_library (Rng.split rng) }

type oracle = { tol : float; max_qubits : int }

let default_oracle = { tol = 1e-6; max_qubits = 6 }

type t = {
  name : string;
  doc : string;
  applies : ir -> bool;
  run : ctx -> ir -> ir;
  oracle : oracle;
}

(* ------------------------------------------------------- IR semantics *)

let apply_ir ir st =
  match ir with
  | Source (Gates c) | Ccx c | Su4 c | Can c | Native { circuit = c; _ } ->
    State.run_from ~n:c.Circuit.n c.Circuit.gates st
  | Source (Pauli p) ->
    let c = Phoenix.to_cx_circuit p in
    State.run_from ~n:c.Circuit.n c.Circuit.gates st
  | Mirrored { circuit = c; final_mapping = m; _ } ->
    let n = c.Circuit.n in
    let st' = State.run_from ~n c.Circuit.gates st in
    (* undo the wire permutation left by mirroring: logical wire [l]'s
       amplitude bit lives on physical wire [m.(l)] (qubit 0 = most
       significant, matching {!State}) *)
    Array.init (Array.length st') (fun x ->
        let y = ref 0 in
        for l = 0 to n - 1 do
          let bit = (x lsr (n - 1 - l)) land 1 in
          y := !y lor (bit lsl (n - 1 - m.(l)))
        done;
        st'.(!y))

let probe_states n =
  (* deterministic: a fixed seed keeps the oracle corpus reproducible *)
  let rng = Rng.create 0x9E3779B97F4A7C15L in
  let zero = State.zero n in
  let entangled () =
    let layer = List.init n (fun q -> Gate.one_q q (Quantum.Haar.su2 rng)) in
    let ladder = List.init (max 0 (n - 1)) (fun q -> Gate.cx q (q + 1)) in
    State.run ~n (layer @ ladder)
  in
  zero :: List.init 3 (fun _ -> entangled ())

type verdict = Checked | Skipped of string

let check_equiv oracle ~reference ~candidate =
  let n = width reference in
  if width candidate <> n then
    Error
      (Printf.sprintf "width changed: %d -> %d wires" n (width candidate))
  else if n > oracle.max_qubits then
    Ok
      (Skipped
         (Printf.sprintf "%d wires exceeds the %d-qubit oracle cap" n
            oracle.max_qubits))
  else begin
    let worst = ref (1.0, -1) in
    List.iteri
      (fun i st ->
        let f = State.fidelity (apply_ir reference st) (apply_ir candidate st) in
        if f < fst !worst then worst := (f, i))
      (probe_states n);
    let f, i = !worst in
    if f >= 1.0 -. oracle.tol then Ok Checked
    else
      Error
        (Printf.sprintf "statevector fidelity %.9f < 1 - %g on probe %d" f
           oracle.tol i)
  end
