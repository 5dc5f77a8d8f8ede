open Numerics

let stage = "compiler.isa"
let eps = 1e-9

type target = {
  name : string;
  doc : string;
  native_2q : string list;
  synthesize : int -> int -> Weyl.Coords.t -> Gate.t list;
  gates_for : Weyl.Coords.t -> int;
  gate_tau : Gate.t -> float;
}

let xy = Microarch.Coupling.xy ~g:1.0

(* ----------------------------------------------------------- dressing *)

let unitary_01 gates =
  List.fold_left
    (fun acc (g : Gate.t) ->
      Mat.mul
        (Quantum.Gates.embed ~n:2 ~qubits:(Array.to_list g.Gate.qubits) g.Gate.mat)
        acc)
    (Mat.identity 4) gates

let one_q_if q m =
  if Mat.equal ~tol:1e-11 m (Mat.identity 2) then [] else [ Gate.one_q q m ]

(* Wrap a class-matching core in the target gate's KAK locals:
   U = (A . kA^dag) . core . (kB^dag . B), exact including phase. The core
   construction only has to land on the right chamber point — every local
   factor (and the core family's own phases) cancels here. *)
let dress q0 q1 (d : Weyl.Kak.t) core =
  if core = [] then
    one_q_if q0 (Mat.mul d.Weyl.Kak.a1 d.Weyl.Kak.b1)
    @ one_q_if q1 (Mat.mul d.Weyl.Kak.a2 d.Weyl.Kak.b2)
  else begin
    let k = Weyl.Kak.decompose (unitary_01 core) in
    if Weyl.Coords.dist k.Weyl.Kak.coords d.Weyl.Kak.coords > 1e-6 then
      failwith
        (Printf.sprintf "Isa.dress: core class %s does not match target %s"
           (Weyl.Coords.to_string k.Weyl.Kak.coords)
           (Weyl.Coords.to_string d.Weyl.Kak.coords));
    let r1 = Mat.mul (Mat.dagger k.Weyl.Kak.b1) d.Weyl.Kak.b1
    and r2 = Mat.mul (Mat.dagger k.Weyl.Kak.b2) d.Weyl.Kak.b2
    and l1 = Mat.mul d.Weyl.Kak.a1 (Mat.dagger k.Weyl.Kak.a1)
    and l2 = Mat.mul d.Weyl.Kak.a2 (Mat.dagger k.Weyl.Kak.a2) in
    one_q_if q0 r1 @ one_q_if q1 r2
    @ List.map (Gate.remap (fun q -> if q = 0 then q0 else q1)) core
    @ one_q_if q0 l1 @ one_q_if q1 l2
  end

(* ---------------------------------------------- per-target synthesis *)

(* CNOT: the exact analytic {0,1,2,3}-CNOT constructions (optimal). *)
let cnot_synth q0 q1 c = Decomp.can_circuit q0 q1 c

(* CZ: the CNOT route with each CX rewritten as H.CZ.H (exact, and CZ is
   in the CNOT class, so the counts stay at the analytic minimum). *)
let cz_of_cx (g : Gate.t) =
  if g.Gate.label = "cx" then
    let a = g.Gate.qubits.(0) and b = g.Gate.qubits.(1) in
    [ Gate.h b; Gate.cz a b; Gate.h b ]
  else [ g ]

let cz_synth q0 q1 c = List.concat_map cz_of_cx (Decomp.can_circuit q0 q1 c)

(* iSWAP / SQiSW cores. Verified parameter maps (see test_isa):
   - iswap . (rx t1 (x) rx t2) . iswap has class (t1/2, t2/2, 0);
   - iswap . (ry t (x) I) . iswap has class (t/2, 0, 0);
   - sqisw^2 = iswap exactly, so substituting two SQiSWs per iSWAP
     preserves both maps. *)
type iswap_class = Id | One_iswap | One_sqisw | Plane | Generic

let classify_sq (c : Weyl.Coords.t) ~sqisw_native =
  if Weyl.Coords.norm1 c < eps then Id
  else if sqisw_native && Weyl.Coords.equal ~tol:eps c Weyl.Coords.sqisw then
    One_sqisw
  else if Weyl.Coords.equal ~tol:eps c Weyl.Coords.iswap then One_iswap
  else if Float.abs c.Weyl.Coords.z < eps then Plane
  else Generic

let iswap_family ~basis (c : Weyl.Coords.t) ~sqisw_native q0 q1 =
  let plane x y = basis q0 q1 @ [ Gate.rx q0 (2.0 *. x); Gate.rx q1 (2.0 *. y) ] @ basis q0 q1 in
  match classify_sq c ~sqisw_native with
  | Id -> []
  | One_sqisw -> [ Gate.make "sqisw" [| q0; q1 |] Quantum.Gates.sqisw ]
  | One_iswap -> basis q0 q1
  | Plane -> plane c.Weyl.Coords.x c.Weyl.Coords.y
  | Generic ->
    (* exact commuting split: Can(x,y,z) = Can(x,y,0) . Can(0,0,z); each
       factor is a dressed 2-basis-gate core (one gate over the analytic
       minimum of 3, in exchange for a closed-form construction) *)
    let zz = Float.abs c.Weyl.Coords.z in
    let part_xy =
      dress 0 1
        (Weyl.Kak.decompose
           (Weyl.Kak.canonical
              (Weyl.Coords.make c.Weyl.Coords.x c.Weyl.Coords.y 0.0)))
        (plane c.Weyl.Coords.x c.Weyl.Coords.y)
    and part_z =
      dress 0 1
        (Weyl.Kak.decompose
           (Weyl.Kak.canonical (Weyl.Coords.make 0.0 0.0 c.Weyl.Coords.z)))
        (basis q0 q1 @ [ Gate.ry q0 (2.0 *. zz) ] @ basis q0 q1)
    in
    part_xy @ part_z

let iswap_synth q0 q1 c =
  iswap_family ~basis:(fun a b -> [ Gate.iswap a b ]) c ~sqisw_native:false q0 q1

let sqisw_synth q0 q1 c =
  iswap_family
    ~basis:(fun a b ->
      let s () = Gate.make "sqisw" [| a; b |] Quantum.Gates.sqisw in
      [ s (); s () ])
    c ~sqisw_native:true q0 q1

let native_synth q0 q1 (c : Weyl.Coords.t) =
  if Weyl.Coords.norm1 c < eps then []
  else [ Gate.can q0 q1 c.Weyl.Coords.x c.Weyl.Coords.y c.Weyl.Coords.z ]

(* ------------------------------------------------------- cost models *)

let fixed_2q_tau tau (g : Gate.t) = if Gate.is_2q g then tau else 0.0

let su4_tau coupling (g : Gate.t) =
  if Gate.is_2q g then
    Microarch.Tau.tau_opt coupling (Robust.Err.ok_exn (Gate.kak g)).Weyl.Kak.coords
  else 0.0

let native_tau = su4_tau xy

(* eQASM-style duration accounting: time is quantized to a cycle and
   every gate — 1Q included — occupies an explicit slot of at least one
   cycle. *)
let eqasm_cycle = 0.05

let quantize tau = eqasm_cycle *. Float.ceil ((tau /. eqasm_cycle) -. 1e-9)

let eqasm_tau (g : Gate.t) =
  if Gate.is_2q g then Float.max eqasm_cycle (quantize (native_tau g))
  else eqasm_cycle

(* ----------------------------------------------------------- targets *)

let count_native c = if Weyl.Coords.norm1 c < eps then 0 else 1

let count_iswap ~per_basis ~sqisw_native c =
  match classify_sq c ~sqisw_native with
  | Id -> 0
  | One_sqisw -> 1
  | One_iswap -> if sqisw_native then 2 else 1
  | Plane -> 2 * per_basis
  | Generic -> 4 * per_basis

let native =
  {
    name = "native";
    doc = "reconfigurable {Can, U3} set: one time-optimal pulse per block";
    native_2q = [ "can" ];
    synthesize = native_synth;
    gates_for = count_native;
    gate_tau = native_tau;
  }

let cnot =
  {
    name = "cnot";
    doc = "fixed CNOT set: analytic minimum 0/1/2/3 CNOTs per block";
    native_2q = [ "cx" ];
    synthesize = cnot_synth;
    gates_for = Decomp.cnot_count_for;
    gate_tau = fixed_2q_tau (Microarch.Duration.conventional_cnot_tau ~g:1.0);
  }

let cz =
  {
    name = "cz";
    doc = "fixed CZ set: the CNOT route with CX = H.CZ.H";
    native_2q = [ "cz" ];
    synthesize = cz_synth;
    gates_for = Decomp.cnot_count_for;
    gate_tau = fixed_2q_tau (Microarch.Duration.conventional_cnot_tau ~g:1.0);
  }

let iswap =
  {
    name = "iswap";
    doc = "fixed iSWAP set: 2 gates on the z = 0 plane, 4 generically";
    native_2q = [ "iswap" ];
    synthesize = iswap_synth;
    gates_for = count_iswap ~per_basis:1 ~sqisw_native:false;
    gate_tau = fixed_2q_tau (Microarch.Duration.basis_gate_tau xy Microarch.Duration.Iswap);
  }

let sqisw =
  {
    name = "sqisw";
    doc = "fixed SQiSW set: the iSWAP route via iSWAP = SQiSW^2";
    native_2q = [ "sqisw" ];
    synthesize = sqisw_synth;
    gates_for = count_iswap ~per_basis:2 ~sqisw_native:true;
    gate_tau = fixed_2q_tau (Microarch.Duration.basis_gate_tau xy Microarch.Duration.Sqisw);
  }

let eqasm =
  {
    name = "eqasm";
    doc = "eQASM-style timed executable: native pulses in explicit cycle-quantized slots";
    native_2q = [ "can" ];
    synthesize = native_synth;
    gates_for = count_native;
    gate_tau = eqasm_tau;
  }

let targets = [ native; cnot; cz; iswap; sqisw; eqasm ]
let known_names = List.map (fun t -> t.name) targets
let find name = List.find_opt (fun t -> t.name = name) targets
let describe () = List.map (fun t -> (t.name, t.doc)) targets

let unknown_error name =
  Robust.Err.Ill_conditioned
    {
      stage;
      detail =
        Printf.sprintf "unknown isa %S (known targets: %s)" name
          (String.concat ", " known_names);
    }

(* ----------------------------------------------------------- lowering *)

let lower_gate t (g : Gate.t) =
  match Gate.arity g with
  | 1 -> [ g ]
  | 2 ->
    let d = Robust.Err.ok_exn (Gate.kak g) in
    dress g.Gate.qubits.(0) g.Gate.qubits.(1) d
      (t.synthesize 0 1 d.Weyl.Kak.coords)
  | k ->
    invalid_arg
      (Printf.sprintf "Isa.lower: %d-qubit gate %s (lower to 2Q first)" k
         g.Gate.label)

let lower t (c : Circuit.t) =
  Circuit.create c.Circuit.n (List.concat_map (lower_gate t) c.Circuit.gates)

(* ------------------------------------------------- timed executable *)

let eqasm_text t (c : Circuit.t) =
  let slots, makespan = Circuit.schedule ~tau:t.gate_tau c in
  let slots = List.filter (fun (s : Circuit.slot) -> s.dur > 0.0) slots in
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "# %s: %d slots, makespan %.3f /g\n" t.name
       (List.length slots) makespan);
  List.iteri
    (fun i (s : Circuit.slot) ->
      Buffer.add_string buf
        (Printf.sprintf "%4d  t=%8.3f  dur=%6.3f  %-6s q%s\n" i s.start s.dur
           s.gate.Gate.label
           (String.concat ",q"
              (List.map string_of_int (Array.to_list s.gate.Gate.qubits)))))
    slots;
  Buffer.contents buf
