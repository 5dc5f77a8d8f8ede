type cost = { distinct_classes : int; families : int; experiments : int }

type policy = {
  base_experiments : int;
  per_gate_experiments : int;
  per_interpolated : int;
  model_based : bool;
}

let default_policy =
  (* rough orders from the paper's cited experiments: tomography + XEB
     fine-tuning ~ tens of experiments per gate; PMW-tuned interpolation
     within a characterized family is nearly free *)
  { base_experiments = 40; per_gate_experiments = 25; per_interpolated = 2; model_based = true }

let classes (c : Circuit.t) =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (g : Gate.t) ->
      if Gate.is_2q g then begin
        let co = (Robust.Err.ok_exn (Gate.kak g)).Weyl.Kak.coords in
        let r v = Float.round (v *. 1e6) /. 1e6 in
        let key = (r co.Weyl.Coords.x, r co.Weyl.Coords.y, r co.Weyl.Coords.z) in
        if not (Hashtbl.mem tbl key) then Hashtbl.add tbl key co
      end)
    c.Circuit.gates;
  Hashtbl.fold (fun _ v acc -> v :: acc) tbl []

(* two classes belong to the same family if they lie on the same ray from
   the origin of the chamber (e.g. the fractional CNOT^s or B^s families) *)
let same_family (a : Weyl.Coords.t) (b : Weyl.Coords.t) =
  let na = Weyl.Coords.norm1 a and nb = Weyl.Coords.norm1 b in
  if na < 1e-9 || nb < 1e-9 then false
  else begin
    let s = na /. nb in
    Float.abs (a.x -. (s *. b.x)) < 1e-6
    && Float.abs (a.y -. (s *. b.y)) < 1e-6
    && Float.abs (a.z -. (s *. b.z)) < 1e-6
  end

let count_families cs =
  let reps = ref [] in
  List.iter
    (fun c -> if not (List.exists (same_family c) !reps) then reps := c :: !reps)
    cs;
  List.length !reps

let estimate ?(policy = default_policy) c =
  let cs = classes c in
  let k = List.length cs in
  let fams = count_families cs in
  let experiments =
    if policy.model_based then
      policy.base_experiments
      + (fams * policy.per_gate_experiments)
      + ((k - fams) * policy.per_interpolated)
    else policy.base_experiments + (k * policy.per_gate_experiments)
  in
  { distinct_classes = k; families = fams; experiments }
