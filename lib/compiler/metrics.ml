type isa = Cnot_isa | Su4_isa of Microarch.Coupling.t | Target of Isa.target

type report = {
  count_2q : int;
  depth_2q : int;
  duration : float;
  distinct_2q : int;
}

let gate_tau = function
  | Cnot_isa -> Isa.cnot.Isa.gate_tau
  | Su4_isa coupling -> Isa.su4_tau coupling
  | Target t -> t.Isa.gate_tau

let report isa c =
  {
    count_2q = Circuit.count_2q c;
    depth_2q = Circuit.depth_2q c;
    duration = Circuit.duration ~tau:(gate_tau isa) c;
    distinct_2q = Circuit.distinct_2q c;
  }

let reduction ~base ~opt = 100.0 *. (base -. opt) /. base

let pp_report ppf r =
  Format.fprintf ppf "#2Q=%d Depth2Q=%d T=%.1f distinct=%d" r.count_2q r.depth_2q
    r.duration r.distinct_2q
