open Numerics

type slot = Free2q of int * int | Free1q of int | Fixed of Gate.t

let slot_wires = function
  | Free2q (a, b) -> [| a; b |]
  | Free1q q -> [| q |]
  | Fixed g -> g.Gate.qubits

(* Relative stall bar of an unconverged restart. A restart that creeps
   along an infidelity floor stops after 12 sweeps that each gain less
   than this share of the missing trace fidelity, instead of running out
   its sweep budget. Sweeps draw nothing from the RNG and callers use only
   converged results, so the bar moves no output bit unless it cuts a
   restart that would have converged. On the 34 suite programs under eff,
   full and nc it kept every gate bit and restart count and cut the summed
   sweeps from 811,277 to 316,685 (compile CPU time 59.4 s to 22.4 s on a
   2-vCPU Xeon); at 2e-2 the bits of rip_add_2 and rip_add_4 move, so keep
   it at 1e-2. *)
let stall_rel = 1e-2

(* Each sweep runs on workspaces allocated once per call: the suffix
   products S_k = E_(m-1) ... E_k (E_k the embedded slot k) by right
   actions, the running prefix E_(k-1) ... E_0 by left actions, and for a
   free slot the partial trace of prefix · (target† · S_(k+1)) over the
   wires off the slot, whose Procrustes solution is the new slot. The
   final prefix is the whole circuit, so the fidelity needs no rebuild.
   Every kernel adds the same terms in the same order as the dense
   product over [Gates.embed] would, so the search is bit-identical to a
   dense sweep. *)
let search ~sweeps ~restarts ~tol rng ~n ~target slots_arr =
  let dim = 1 lsl n in
  let m_slots = Array.length slots_arr in
  let tdag = Mat.dagger target in
  let plans =
    Array.map
      (fun s -> Quantum.Gates.plan ~n ~qubits:(Array.to_list (slot_wires s)))
      slots_arr
  in
  let envs =
    Array.map
      (fun s ->
        let d = 1 lsl Array.length (slot_wires s) in
        Mat.create d d)
      slots_arr
  in
  let identity = Mat.identity dim in
  (* suffix.(k) = S_k for k >= 1; suffix.(m) stays the identity *)
  let suffix =
    Array.init (m_slots + 1) (fun k -> if k = m_slots then identity else Mat.create dim dim)
  in
  let prefix = ref (Mat.create dim dim) and spare = ref (Mat.create dim dim) in
  let w = Mat.create dim dim and tp = Mat.create dim dim in
  (* prefix <- E_k · prefix *)
  let push k mats =
    Quantum.Gates.apply_left_into plans.(k) ~dst:!spare mats.(k) !prefix;
    let p = !prefix in
    prefix := !spare;
    spare := p
  in
  let fval () =
    Mat.mul_into ~dst:tp tdag !prefix;
    Cx.norm (Mat.trace tp)
  in
  let n_sweeps = ref 0 and n_restarts = ref 0 in
  let run_restart () =
    incr n_restarts;
    (* current slot matrices *)
    let mats =
      Array.map
        (function
          | Free2q _ -> Quantum.Haar.su4 rng
          | Free1q _ -> Quantum.Haar.su2 rng
          | Fixed g -> g.Gate.mat)
        slots_arr
    in
    Mat.copy_into ~dst:!prefix identity;
    for k = 0 to m_slots - 1 do
      push k mats
    done;
    let best = ref (fval ()) in
    let stall = ref 0 in
    (try
       for _ = 1 to sweeps do
         incr n_sweeps;
         for k = m_slots - 1 downto 1 do
           Quantum.Gates.apply_right_into plans.(k) ~dst:suffix.(k) suffix.(k + 1) mats.(k)
         done;
         Mat.copy_into ~dst:!prefix identity;
         for k = 0 to m_slots - 1 do
           (match slots_arr.(k) with
           | Fixed _ -> ()
           | Free2q _ | Free1q _ ->
             Mat.mul_into ~dst:w tdag suffix.(k + 1);
             Quantum.Gates.partial_trace_mul_into plans.(k) ~dst:envs.(k) !prefix w;
             mats.(k) <- Svd.unitary_maximizer envs.(k));
           push k mats
         done;
         let f = fval () in
         let converged = 1.0 -. (!best /. float_of_int dim) < tol in
         (* once below tol, keep polishing toward machine precision; before
            that, a sweep stalls when it gains less than [stall_rel] of the
            trace fidelity still missing (a NaN [best] never stalls) *)
         let thresh =
           if converged then 1e-16
           else Float.max (1e-13 *. float_of_int dim) (stall_rel *. (float_of_int dim -. !best))
         in
         if f -. !best < thresh then incr stall else stall := 0;
         if f > !best then best := f;
         if 1.0 -. (!best /. float_of_int dim) < 1e-14 then raise Exit;
         if !stall > (if converged then 6 else 12) then raise Exit
       done
     with Exit -> ());
    (* a NaN trace fidelity must read as "no convergence", not compare
       as false against every threshold downstream *)
    let inf = 1.0 -. (!best /. float_of_int dim) in
    (Array.copy mats, if Float.is_nan inf then Float.infinity else inf)
  in
  let best_mats = ref [||] and best_inf = ref infinity in
  (try
     for _ = 1 to restarts do
       let mats, inf = run_restart () in
       if inf < !best_inf then begin
         best_inf := inf;
         best_mats := mats
       end;
       if !best_inf < tol then raise Exit
     done
   with Exit -> ());
  Robust.Counters.add ~stage:"compiler.synth" "restarts" !n_restarts;
  Robust.Counters.add ~stage:"compiler.synth" "sweeps" !n_sweeps;
  (!best_mats, !best_inf)

(* --------------------------------------------------------- search memo *)

(* Process-wide memo of [search]. A search draws from the RNG only when a
   restart starts, so what it returns is a function of its inputs alone:
   the stream position, [sweeps], [restarts], [tol], [n], the exact bits
   of [target] and the slots (a fixed gate by its wires and matrix bits;
   its label is not read, and a hit rebuilds the gates from the caller's
   slots). The key is the MD5 of an exact fingerprint of those inputs; an
   entry holds the slot matrices, the infidelity and the stream position
   after the search, so a hit returns the bits a search would and leaves
   the caller's stream where a search would. Its matrices are shared and
   read-only, like every gate's. An armed fault ([mul_nan],
   [jacobi_stall]) shapes sweeps, so [Cache.Memo] skips the memo then.
   Only exact repeats hit: a fresh compile repeats none of its searches
   (0 of 3,723 over the 34 suite programs under full, nc and eff, each
   from an empty memo). Repeats come from a process compiling again: the
   suite under full, then nc, then eff makes 1,517 distinct searches (nc
   and eff repeat only full's), and a second pass over it hits on every
   search when they all fit, but on 38 % of full's at 1024 entries, which
   evicts each before its repeat. So the capacity is the next power of
   two, 2048 entries, about 2.7 MiB full (1.36 KB an entry, measured). *)
let memo_capacity = 2048

let memo : (Digest.t, Mat.t array * float * Rng.position) Cache.Memo.t =
  Cache.Memo.create ~capacity:memo_capacity

let memo_key ~sweeps ~restarts ~tol rng ~n ~target slots_arr =
  let open Cache.Fingerprint in
  let wires b w = Array.fold_left int (int b (Array.length w)) w in
  let b = str (create "synth.search.v1") (Rng.position_bits (Rng.position rng)) in
  let b = List.fold_left int b [ sweeps; restarts; n; Array.length slots_arr ] in
  let b = mat_bits (bits b tol) target in
  let slot b = function
    | Free2q (p, q) -> wires (str b "2") [| p; q |]
    | Free1q q -> wires (str b "1") [| q |]
    | Fixed g -> mat_bits (wires (str b "f") g.Gate.qubits) g.Gate.mat
  in
  Digest.string (key (Array.fold_left slot b slots_arr))

let memo_length () = Cache.Memo.length memo
let memo_clear () = Cache.Memo.clear memo

let optimize ?(sweeps = 400) ?(restarts = 6) ?(tol = 1e-10) rng ~n ~target slots =
  let slots_arr = Array.of_list slots in
  let mats, inf, after =
    Cache.Memo.find_or_compute memo ~stage:"compiler.synth"
      (memo_key ~sweeps ~restarts ~tol rng ~n ~target slots_arr)
      (fun () ->
        let mats, inf = search ~sweeps ~restarts ~tol rng ~n ~target slots_arr in
        (mats, inf, Rng.position rng))
  in
  Rng.set_position rng after;
  let gates =
    List.concat
      (List.mapi
         (fun i s ->
           match s with
           | Free2q (a, b) -> [ Gate.su4 a b mats.(i) ]
           | Free1q q ->
             if Mat.equal ~tol:1e-11 mats.(i) (Mat.identity 2) then []
             else [ Gate.one_q q mats.(i) ]
           | Fixed g -> [ g ])
         slots)
  in
  (gates, inf)

let pair_cycle n =
  match n with
  | 2 -> [| (0, 1) |]
  | 3 -> [| (0, 1); (1, 2); (0, 2) |]
  | _ ->
    Array.of_list
      (List.concat_map (fun i -> List.init (n - i - 1) (fun j -> (i, i + j + 1))) (List.init n (fun i -> i)))

let su4_template ~n m =
  let cyc = pair_cycle n in
  let front = List.init n (fun q -> Free1q q) in
  let mid =
    List.init m (fun k ->
        let a, b = cyc.(k mod Array.length cyc) in
        Free2q (a, b))
  in
  let back = List.init n (fun q -> Free1q q) in
  front @ mid @ back

let cx_template ~n m =
  let cyc = pair_cycle n in
  let front = List.init n (fun q -> Free1q q) in
  let mid =
    List.concat
      (List.init m (fun k ->
           let a, b = cyc.(k mod Array.length cyc) in
           [ Fixed (Gate.cx a b); Free1q a; Free1q b ]))
  in
  front @ mid

let search_counts ?(tol = 1e-9) rng ~n ~target ~max_gates ~template ~count_2q =
  if Mat.has_nan target then begin
    (* a poisoned target would make every restart chase NaN infidelities;
       refuse up front so callers take their exact-synthesis fallback *)
    Robust.Counters.incr ~stage:"compiler.synth" "nan_target";
    None
  end
  else begin
    let rec go m =
      if m > max_gates then None
      else begin
        let slots = template ~n m in
        let restarts = if m <= 1 then 2 else 4 + m in
        let gates, inf = optimize ~restarts ~tol rng ~n ~target slots in
        if inf < tol then Some (gates, count_2q gates) else go (m + 1)
      end
    in
    go 0
  end

let count_su4 gates = List.length (List.filter Gate.is_2q gates)

let min_su4 ?(tol = 1e-9) rng ~n ~target ~max_gates =
  search_counts ~tol rng ~n ~target ~max_gates ~template:su4_template ~count_2q:count_su4

let min_cx_desc ?(tol = 1e-9) rng ~n ~target ~max_gates ~min_gates =
  let rec go m best =
    if m < min_gates then best
    else begin
      let slots = cx_template ~n m in
      let gates, inf = optimize ~restarts:3 ~sweeps:250 ~tol rng ~n ~target slots in
      if inf < tol then go (m - 1) (Some (gates, count_su4 gates)) else best
    end
  in
  go max_gates None
