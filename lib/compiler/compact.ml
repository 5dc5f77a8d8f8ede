open Numerics

let compactness c =
  let blocks = Blocks.collect ~w:3 c in
  List.fold_left
    (fun acc b ->
      let k = float_of_int (Blocks.count_2q b) in
      acc +. (k *. k))
    0.0 blocks

let exchangeable rng (g1 : Gate.t) (g2 : Gate.t) =
  let tol = 1e-9 in
  if not (Gate.is_2q g1 && Gate.is_2q g2) then None
  else begin
    let w1 = Array.to_list g1.qubits and w2 = Array.to_list g2.qubits in
    let shared = List.filter (fun q -> List.mem q w2) w1 in
    if List.length shared <> 1 then None
    else begin
      let union = List.sort_uniq compare (w1 @ w2) in
      let pos q =
        let rec find i = function
          | [] -> assert false
          | x :: r -> if x = q then i else find (i + 1) r
        in
        find 0 union
      in
      let emb (g : Gate.t) =
        Quantum.Gates.embed ~n:3 ~qubits:(List.map pos (Array.to_list g.qubits)) g.mat
      in
      (* target: g2 after g1 *)
      let target = Mat.mul (emb g2) (emb g1) in
      (* rewritten order: a gate on g2's wires first, then one on g1's *)
      let slot_of (g : Gate.t) = Synth.Free2q (pos g.qubits.(0), pos g.qubits.(1)) in
      let gates, inf =
        Synth.optimize ~restarts:4 ~sweeps:200 ~tol rng ~n:3 ~target
          [ slot_of g2; slot_of g1 ]
      in
      if inf > tol then None
      else begin
        let back = Array.of_list union in
        match List.map (Gate.remap (fun q -> back.(q))) gates with
        | [ a; b ] -> Some (a, b)
        | _ -> None
      end
    end
  end

let max_rounds = 2

let run rng (c : Circuit.t) =
  let gates = ref (Array.of_list c.gates) in
  let improved = ref true in
  let rounds = ref 0 in
  let score arr = compactness (Circuit.create c.n (Array.to_list arr)) in
  let current = ref (score !gates) in
  (* exchange feasibility per pair, keyed by the exact matrix bits and
     wires of both gates, so a repeated pair skips its synthesis and only
     an exact repeat gets its rewrite *)
  let cache : (string, (Mat.t * Mat.t) option) Hashtbl.t = Hashtbl.create 64 in
  let fp (g1 : Gate.t) (g2 : Gate.t) =
    let open Cache.Fingerprint in
    let gate b (g : Gate.t) = mat_bits (Array.fold_left int b g.qubits) g.mat in
    key (gate (gate (create "compact.exchange.v2") g1) g2)
  in
  while !improved && !rounds < max_rounds do
    improved := false;
    incr rounds;
    let arr = !gates in
    let m = Array.length arr in
    for i = 0 to m - 2 do
      let g1 = arr.(i) and g2 = arr.(i + 1) in
      if Gate.is_2q g1 && Gate.is_2q g2 then begin
        let shared =
          List.filter
            (fun q -> Array.exists (fun x -> x = q) g2.Gate.qubits)
            (Array.to_list g1.Gate.qubits)
        in
        if List.length shared = 1 then begin
          let attempt =
            let key = fp g1 g2 in
            match Hashtbl.find_opt cache key with
            | Some (Some (m2, m1)) ->
              Some (Gate.su4 g2.qubits.(0) g2.qubits.(1) m2,
                    Gate.su4 g1.qubits.(0) g1.qubits.(1) m1)
            | Some None -> None
            | None ->
              let r = exchangeable rng g1 g2 in
              Hashtbl.add cache key
                (Option.map (fun ((a : Gate.t), (b : Gate.t)) -> (a.mat, b.mat)) r);
              r
          in
          match attempt with
          | None -> ()
          | Some (a, b) ->
            let candidate = Array.copy arr in
            candidate.(i) <- a;
            candidate.(i + 1) <- b;
            let s = score candidate in
            if s > !current +. 1e-9 then begin
              arr.(i) <- a;
              arr.(i + 1) <- b;
              current := s;
              improved := true
            end
        end
      end
    done;
    gates := arr
  done;
  Circuit.create c.n (Array.to_list !gates)
