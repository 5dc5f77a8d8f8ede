open Numerics

type result = { circuit : Circuit.t; final_mapping : int array; mirrored : int }

let default_threshold = 0.2

let run ?(r = default_threshold) (c : Circuit.t) =
  (* wire_of.(logical) = current physical wire *)
  let wire_of = Array.init c.n (fun i -> i) in
  let mirrored = ref 0 in
  let kak = Blocks.kak_table c.gates in
  let out = ref [] in
  List.iter
    (fun (g : Gate.t) ->
      match Gate.arity g with
      | 1 -> out := Gate.remap (fun q -> wire_of.(q)) g :: !out
      | 2 ->
        let a = g.qubits.(0) and b = g.qubits.(1) in
        let d = Robust.Err.ok_exn (Gate.kak g) in
        let coords = d.Weyl.Kak.coords in
        let wires = [| wire_of.(a); wire_of.(b) |] in
        if Weyl.Coords.norm1 coords <= r && Weyl.Coords.norm1 coords > 1e-12 then begin
          (* execute SWAP . g instead and swap the logical wires; each
             distinct new matrix is decomposed once in this pass *)
          incr mirrored;
          let m = Mat.mul Quantum.Gates.swap g.mat in
          out := Gate.make_kak "su4*" wires m (kak m) :: !out;
          let t = wire_of.(a) in
          wire_of.(a) <- wire_of.(b);
          wire_of.(b) <- t
        end
        else
          (* the KAK the rule read goes on with the gate, carried or not *)
          out := Gate.make_kak g.label wires g.mat d :: !out
      | k ->
        invalid_arg (Printf.sprintf "Mirroring.run: %d-qubit gate not lowered" k))
    c.gates;
  {
    circuit = Circuit.create c.n (List.rev !out);
    final_mapping = wire_of;
    mirrored = !mirrored;
  }
