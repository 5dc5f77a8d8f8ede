type mode = Eff | Full | Nc

let mode_to_string = function
  | Eff -> "ReQISC-Eff"
  | Full -> "ReQISC-Full"
  | Nc -> "ReQISC-NC"

type output = {
  circuit : Circuit.t;
  final_mapping : int array;
  mirrored : int;
  template_classes : int;
}

(* ---------------------------------------------------------- registry *)

let pass ?(oracle = Pass.default_oracle) ~name ~doc ~applies run =
  { Pass.name; doc; applies; run; oracle }

(* synthesis-based passes answer to a looser fidelity tolerance: the
   template search itself only targets ~1e-3 in Frobenius norm, which is
   ~1e-6 in state fidelity *)
let synth_oracle = { Pass.tol = 1e-4; max_qubits = 6 }

let lower_3q =
  pass ~name:"lower_3q"
    ~doc:"lower the Type-I source to the CCX/CX/1Q 3-qubit IR"
    ~applies:(function Pass.Source (Pass.Gates _) -> true | _ -> false)
    (fun _ctx -> function
      | Pass.Source (Pass.Gates c) -> Pass.Ccx (Decomp.lower_3q c)
      | ir -> ir)

let template =
  pass ~name:"template" ~oracle:synth_oracle
    ~doc:"program-aware template synthesis: 3Q blocks -> minimal SU(4) forms"
    ~applies:(function Pass.Ccx _ -> true | _ -> false)
    (fun ctx -> function
      | Pass.Ccx c -> Pass.Su4 (Template.run ctx.Pass.lib c)
      | ir -> ir)

let phoenix_to_su4 =
  pass ~name:"phoenix_to_su4"
    ~doc:"Pauli-rotation (Type-II) source -> fused SU(4) ladders"
    ~applies:(function Pass.Source (Pass.Pauli _) -> true | _ -> false)
    (fun _ctx -> function
      | Pass.Source (Pass.Pauli p) -> Pass.Su4 (Phoenix.to_su4_circuit p)
      | ir -> ir)

let hier_pass ~name ~doc ~compacting =
  pass ~name ~doc ~oracle:synth_oracle
    ~applies:(function Pass.Su4 _ -> true | _ -> false)
    (fun ctx -> function
      | Pass.Su4 c -> (
        (* hierarchical synthesis is an optimization, never a
           requirement: if it breaks down numerically, keep the exact
           SU(4) stage instead of aborting *)
        match Hierarchical.run ~compacting ctx.Pass.rng c with
        | c' -> Pass.Su4 c'
        | exception _ ->
          Robust.Counters.incr ~stage:"compiler.pipeline" "hier_fallback";
          Pass.Su4 c)
      | ir -> ir)

let hierarchical =
  hier_pass ~name:"hierarchical" ~compacting:true
    ~doc:"hierarchical block resynthesis with DAG compacting between rounds"

let hierarchical_nc =
  hier_pass ~name:"hierarchical_nc" ~compacting:false
    ~doc:"hierarchical block resynthesis without compacting (ablation)"

let compact =
  pass ~name:"compact" ~oracle:synth_oracle
    ~doc:"DAG compacting: exchange adjacent blocks to densify, then fuse"
    ~applies:(function Pass.Su4 _ -> true | _ -> false)
    (fun ctx -> function
      | Pass.Su4 c ->
        (* same cost guard as the hierarchical rounds: compacting is a
           quadratic search, so very wide stages skip it *)
        if Circuit.count_2q c > 300 then Pass.Su4 c
        else Pass.Su4 (Blocks.fuse_2q (Compact.run ctx.Pass.rng c))
      | ir -> ir)

let peephole =
  pass ~name:"peephole"
    ~doc:"slide 2Q gates past exactly-commuting neighbors, then fuse pairs"
    ~applies:(function Pass.Su4 _ -> true | _ -> false)
    (fun _ctx -> function
      | Pass.Su4 c -> Pass.Su4 (Peephole.run c)
      | ir -> ir)

let mirroring =
  pass ~name:"mirroring"
    ~doc:"replace near-identity 2Q gates by mirrored su4* + a wire swap"
    ~applies:(function Pass.Su4 _ -> true | _ -> false)
    (fun _ctx -> function
      | Pass.Su4 c ->
        let m = Mirroring.run c in
        Pass.Mirrored
          {
            circuit = m.Mirroring.circuit;
            final_mapping = m.Mirroring.final_mapping;
            mirrored = m.Mirroring.mirrored;
          }
      | ir -> ir)

let to_can =
  pass ~name:"to_can"
    ~doc:"lower su4 blocks to the final {Can, U3} ISA form"
    ~applies:(function Pass.Su4 _ -> true | _ -> false)
    (fun _ctx -> function
      | Pass.Su4 c -> Pass.Can (Decomp.to_can_isa c)
      | ir -> ir)

(* One lowering pass per registered target ISA. Each consumes the {Can,
   U3} form (so ISA plans end [...; to_can; lower_isa:<t>]) and carries
   the synthesis oracle: the lowered circuit is differentially checked
   against the simulator exactly like every other synthesis pass. *)
let lower_isa (t : Isa.target) =
  pass
    ~name:("lower_isa:" ^ t.Isa.name)
    ~oracle:synth_oracle
    ~doc:(Printf.sprintf "lower the {Can, U3} form to the %s target ISA" t.Isa.name)
    ~applies:(function Pass.Can _ -> true | _ -> false)
    (fun _ctx -> function
      | Pass.Can c -> Pass.Native { isa = t.Isa.name; circuit = Isa.lower t c }
      | ir -> ir)

let lower_isa_passes = List.map lower_isa Isa.targets

let all =
  [
    lower_3q;
    template;
    phoenix_to_su4;
    peephole;
    hierarchical;
    hierarchical_nc;
    compact;
    mirroring;
    to_can;
  ]
  @ lower_isa_passes

let known_names = List.map (fun (p : Pass.t) -> p.name) all
let find name = List.find_opt (fun (p : Pass.t) -> p.Pass.name = name) all
let describe () = List.map (fun (p : Pass.t) -> (p.Pass.name, p.Pass.doc)) all

(* ------------------------------------------------------------- plans *)

type plan = { plan_name : string; passes : Pass.t list }

let plan_of_mode = function
  | Eff ->
    { plan_name = "eff"; passes = [ lower_3q; template; phoenix_to_su4; mirroring ] }
  | Full ->
    {
      plan_name = "full";
      passes = [ lower_3q; template; phoenix_to_su4; hierarchical; mirroring ];
    }
  | Nc ->
    {
      plan_name = "nc";
      passes = [ lower_3q; template; phoenix_to_su4; hierarchical_nc; mirroring ];
    }

let mode_of_name name =
  List.find_opt (fun m -> (plan_of_mode m).plan_name = name) [ Eff; Full; Nc ]

(* The default plan retargeted at a named ISA: mirroring is dropped (it
   leaves a wire permutation the Can form does not carry) and the tail
   becomes [to_can; lower_isa:<t>]. *)
let plan_for_isa ?(mode = Eff) (t : Isa.target) =
  let synth =
    match mode with
    | Eff -> [ lower_3q; template; phoenix_to_su4 ]
    | Full -> [ lower_3q; template; phoenix_to_su4; hierarchical ]
    | Nc -> [ lower_3q; template; phoenix_to_su4; hierarchical_nc ]
  in
  {
    plan_name = (plan_of_mode mode).plan_name ^ "+isa:" ^ t.Isa.name;
    passes = synth @ [ to_can; lower_isa t ];
  }

(* Retarget an existing plan: append the lowering tail. [lower_isa] only
   applies to the Can form, so a plan that ends in [mirroring] records
   the tail as skipped instead of lowering. *)
let with_isa plan (t : Isa.target) =
  {
    plan_name = plan.plan_name ^ "+isa:" ^ t.Isa.name;
    passes = plan.passes @ [ to_can; lower_isa t ];
  }

let resolve_plan ~mode ~plan ~isa =
  match (plan, isa) with
  | None, None -> plan_of_mode mode
  | Some p, None -> p
  | None, Some t -> plan_for_isa ~mode t
  | Some p, Some t -> with_isa p t

let plan_stage = "compiler.plan"

let unknown_pass_error what name =
  Robust.Err.Ill_conditioned
    {
      stage = plan_stage;
      detail =
        Printf.sprintf "%s: unknown pass %S (known passes: %s)" what name
          (String.concat ", " known_names);
    }

let of_names ?(name = "custom") names =
  let rec go acc = function
    | [] -> Ok { plan_name = name; passes = List.rev acc }
    | n :: rest -> (
      match find n with
      | Some p -> go (p :: acc) rest
      | None -> Error (unknown_pass_error "plan" n))
  in
  go [] names

(* ----------------------------------------------------------- running *)

type pass_stat = {
  pass : string;
  ran : bool;
  form : string;
  count_2q : int;
  depth_2q : int;
  wall_s : float;
}

let stat_of ~ran ~wall_s (p : Pass.t) ir =
  {
    pass = p.Pass.name;
    ran;
    form = Pass.ir_form ir;
    count_2q = Pass.count_2q ir;
    depth_2q = Pass.depth_2q ir;
    wall_s;
  }

let run_pass ctx ir (p : Pass.t) =
  let stage = "compiler.pass." ^ p.Pass.name in
  if not (p.Pass.applies ir) then begin
    Robust.Counters.incr ~stage "skipped";
    (ir, stat_of ~ran:false ~wall_s:0.0 p ir)
  end
  else begin
    let t0 = Obs.Clock.now_ns () in
    let ir' = Obs.Span.with_ ~stage:"compiler" ~name:p.Pass.name (fun () -> p.Pass.run ctx ir) in
    let wall_s = float_of_int (Obs.Clock.now_ns () - t0) *. 1e-9 in
    Robust.Counters.incr ~stage "ok";
    (ir', stat_of ~ran:true ~wall_s p ir')
  end

let slice ?start_from ?stop_after plan =
  let names = List.map (fun (p : Pass.t) -> p.Pass.name) plan.passes in
  let check what = function
    | Some n when not (List.mem n names) -> Error (unknown_pass_error what n)
    | _ -> Ok ()
  in
  match (check "start_from" start_from, check "stop_after" stop_after) with
  | Error e, _ | _, Error e -> Error e
  | Ok (), Ok () ->
    let from_start =
      match start_from with
      | None -> plan.passes
      | Some n ->
        let rec drop = function
          | (p : Pass.t) :: _ as ps when p.Pass.name = n -> ps
          | _ :: rest -> drop rest
          | [] -> []
        in
        drop plan.passes
    in
    let upto =
      match stop_after with
      | None -> from_start
      | Some n ->
        let rec take = function
          | (p : Pass.t) :: _ when p.Pass.name = n -> [ p ]
          | p :: rest -> p :: take rest
          | [] -> []
        in
        take from_start
    in
    Ok upto

let run_plan ?start_from ?stop_after ctx plan ir0 =
  match slice ?start_from ?stop_after plan with
  | Error e -> Error e
  | Ok passes ->
    let ir, stats =
      List.fold_left
        (fun (ir, acc) p ->
          let ir', st = run_pass ctx ir p in
          (ir', st :: acc))
        (ir0, []) passes
    in
    Ok (ir, List.rev stats)

let identity_mapping n = Array.init n (fun i -> i)

let output_of_ir ctx ir =
  let classes () = Template.library_size ctx.Pass.lib in
  match ir with
  | Pass.Mirrored { circuit; final_mapping; mirrored } ->
    Ok { circuit; final_mapping; mirrored; template_classes = classes () }
  | Pass.Ccx c | Pass.Su4 c | Pass.Can c | Pass.Native { circuit = c; _ } ->
    Ok
      {
        circuit = c;
        final_mapping = identity_mapping c.Circuit.n;
        mirrored = 0;
        template_classes = classes ();
      }
  | Pass.Source _ ->
    Error
      (Robust.Err.Ill_conditioned
         {
           stage = plan_stage;
           detail = "plan produced no circuit (no pass applied to the source)";
         })

let pipeline_stage = "compiler.pipeline"

let compile_plan ?start_from ?stop_after ~plan rng p =
  let failed msg =
    Robust.Counters.incr ~stage:pipeline_stage "failed";
    Error (Robust.Err.Ill_conditioned { stage = pipeline_stage; detail = msg })
  in
  match
    Obs.Span.with_ ~stage:"compiler" ~name:"compile" @@ fun () ->
    let ctx = Pass.make_ctx rng in
    match run_plan ?start_from ?stop_after ctx plan (Pass.Source p) with
    | Error e -> Error e
    | Ok (ir, stats) -> (
      match output_of_ir ctx ir with
      | Error e -> Error e
      | Ok out ->
        Robust.Counters.incr ~stage:pipeline_stage "ok";
        Ok (out, stats))
  with
  | r -> r
  | exception Failure msg -> failed msg
  | exception Invalid_argument msg -> failed msg
