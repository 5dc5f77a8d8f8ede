open Numerics

type mode = Compiler.Passes.mode = Eff | Full | Nc

type compiled = Compiler.Passes.output = {
  circuit : Circuit.t;
  final_mapping : int array;
  mirrored : int;
  template_classes : int;
}

module Plan = struct
  type t = Compiler.Passes.plan

  let default mode = Compiler.Passes.plan_of_mode mode
  let of_names ?name names = Compiler.Passes.of_names ?name names
  let known_names = Compiler.Passes.known_names
  let describe = Compiler.Passes.describe
  let name (p : t) = p.Compiler.Passes.plan_name

  let pass_names (p : t) =
    List.map (fun (ps : Compiler.Pass.t) -> ps.Compiler.Pass.name) p.Compiler.Passes.passes
end

let compile_program ?(mode = Eff) ?plan ?isa rng p =
  let isa =
    match isa with
    | None -> Ok None
    | Some name -> (
      match Isa.find name with
      | Some t -> Ok (Some t)
      | None -> Error (Isa.unknown_error name))
  in
  match isa with
  | Error e -> Error e
  | Ok isa ->
    let plan = Compiler.Passes.resolve_plan ~mode ~plan ~isa in
    Result.map fst (Compiler.Passes.compile_plan ~plan rng p)

let compile ?mode ?plan ?isa rng c =
  compile_program ?mode ?plan ?isa rng (Compiler.Pass.Gates c)

let compile_pauli ?mode ?plan ?isa rng p =
  compile_program ?mode ?plan ?isa rng (Compiler.Pass.Pauli p)

let route ?(mirror = true) topology c =
  match Compiler.Routing.route ~mirror topology c with
  | r -> Ok r
  | exception Failure msg ->
    Error (Robust.Err.Ill_conditioned { stage = "compiler.routing"; detail = msg })
  | exception Invalid_argument msg ->
    Error (Robust.Err.Ill_conditioned { stage = "compiler.routing"; detail = msg })

type pulse_instruction = {
  qubits : int * int;
  pulse : Microarch.Genashn.pulse;
  pre : (Mat.t * Mat.t) option;
  post : (Mat.t * Mat.t) option;
}

type gate_outcome = {
  gate : Gate.t;
  outcome : pulse_instruction Robust.Outcome.t;
}

let pulse_outcomes ?budget coupling (c : Circuit.t) =
  List.filter_map
    (fun (g : Gate.t) ->
      if not (Gate.is_2q g) then None
      else begin
        let outcome =
          Robust.Outcome.map
            (fun (r : Microarch.Genashn.result) ->
              {
                qubits = (g.qubits.(0), g.qubits.(1));
                pulse = r.Microarch.Genashn.pulse;
                pre = Some (r.Microarch.Genashn.b1, r.Microarch.Genashn.b2);
                post = Some (r.Microarch.Genashn.a1, r.Microarch.Genashn.a2);
              })
            (Microarch.Genashn.solve_r ?budget coupling g)
        in
        Some { gate = g; outcome }
      end)
    c.Circuit.gates

let pulses_compiled ?budget coupling c =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | (o : gate_outcome) :: rest -> (
      match Robust.Outcome.to_result o.outcome with
      | Ok i -> go (i :: acc) rest
      | Error e -> Error e)
  in
  go [] (pulse_outcomes ?budget coupling c)

let pulses ?budget ?plan ?(seed = 1L) coupling (c : Circuit.t) =
  let through_plan =
    match plan with
    | None -> Ok c
    | Some plan ->
      (* run the circuit through the plan first: pulses for what would
         actually execute, not for the raw input *)
      Result.map
        (fun ((o : compiled), _) -> o.circuit)
        (Compiler.Passes.compile_plan ~plan (Rng.create seed)
           (Compiler.Pass.Gates c))
  in
  match through_plan with
  | Error e -> Error e
  | Ok c -> pulses_compiled ?budget coupling c

let with_pulse_cache cache f = Microarch.Pulse_cache.with_cache cache f

let metrics = Compiler.Metrics.report
let xy_coupling = Microarch.Coupling.xy ~g:1.0
