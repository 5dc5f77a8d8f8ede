type isa = Cnot_isa | Su4_isa of Microarch.Coupling.t | Target of Isa.target

type report = {
  count_2q : int;
  depth_2q : int;
  duration : float;
  distinct_2q : int;
}

let gate_tau isa (g : Gate.t) =
  if not (Gate.is_2q g) then 0.0
  else
    match isa with
    | Cnot_isa -> Microarch.Duration.conventional_cnot_tau ~g:1.0
    | Su4_isa coupling ->
      Microarch.Tau.tau_opt coupling (Weyl.Kak.coords_of g.Gate.mat)
    | Target t -> t.Isa.gate_tau g

let report isa c =
  let duration =
    match isa with
    | Target t -> Isa.duration t c
    | Cnot_isa | Su4_isa _ -> Circuit.duration ~tau:(gate_tau isa) c
  in
  {
    count_2q = Circuit.count_2q c;
    depth_2q = Circuit.depth_2q c;
    duration;
    distinct_2q = Circuit.distinct_2q c;
  }

let reduction ~base ~opt = 100.0 *. (base -. opt) /. base

let pp_report ppf r =
  Format.fprintf ppf "#2Q=%d Depth2Q=%d T=%.1f distinct=%d" r.count_2q r.depth_2q
    r.duration r.distinct_2q
