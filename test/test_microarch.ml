(* Tests for the genAshN microarchitecture: coupling normal form, optimal
   durations (Theorem 1), ND/EA pulse solving, 1Q corrections, and the
   duration model behind Table 3. *)

open Numerics
open Microarch

let rng = Rng.create 123L
let pi = Float.pi

let check_float ?(tol = 1e-9) msg expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s (expected %.10g, got %.10g)" msg expected actual)
    true
    (Float.abs (expected -. actual) <= tol)

(* ------------------------------------------------------------- coupling *)

let test_coupling_basics () =
  let h = Coupling.xy ~g:1.0 in
  check_float "xy strength" 1.0 (Coupling.strength h);
  check_float "xy a" 0.5 h.a;
  let h = Coupling.xx ~g:2.0 in
  check_float "xx strength" 2.0 (Coupling.strength h);
  Alcotest.check_raises "invalid order" (Invalid_argument "Coupling.make: need a >= b >= |c| (got 0.1 0.5 0)")
    (fun () -> ignore (Coupling.make 0.1 0.5 0.0))

let test_coupling_matrix_hermitian () =
  let h = Coupling.random rng in
  Alcotest.(check bool) "hermitian" true (Mat.is_hermitian (Coupling.matrix h));
  check_float ~tol:1e-12 "normalized" 1.0 (Coupling.strength h)

let test_su2_of_so3 () =
  (* lift a random rotation and check the adjoint action *)
  for _ = 1 to 10 do
    let u0 = Quantum.Haar.su2 rng in
    let adj i k =
      let si = Quantum.Pauli.matrix_1q [| Quantum.Pauli.X; Y; Z |].(i) in
      let sk = Quantum.Pauli.matrix_1q [| Quantum.Pauli.X; Y; Z |].(k) in
      0.5 *. Cx.re (Mat.trace (Mat.mul si (Mat.mul3 u0 sk (Mat.dagger u0))))
    in
    let r = Array.init 3 (fun i -> Array.init 3 (fun k -> adj i k)) in
    let u = Coupling.su2_of_so3 r in
    (* u acts the same as u0 by conjugation (they agree up to sign) *)
    let adj_u i k =
      let si = Quantum.Pauli.matrix_1q [| Quantum.Pauli.X; Y; Z |].(i) in
      let sk = Quantum.Pauli.matrix_1q [| Quantum.Pauli.X; Y; Z |].(k) in
      0.5 *. Cx.re (Mat.trace (Mat.mul si (Mat.mul3 u sk (Mat.dagger u))))
    in
    for i = 0 to 2 do
      for k = 0 to 2 do
        check_float ~tol:1e-8 (Printf.sprintf "adjoint %d%d" i k) r.(i).(k) (adj_u i k)
      done
    done
  done

let test_normal_form_roundtrip () =
  for _ = 1 to 10 do
    (* random Hermitian with a genuine 2-local part *)
    let g = Mat.init 4 4 (fun _ _ -> Cx.mk (Rng.gaussian rng) (Rng.gaussian rng)) in
    let h = Mat.rsmul 0.5 (Mat.add g (Mat.dagger g)) in
    let nf = Coupling.normal_form h in
    Alcotest.(check bool) "canonical ordering" true
      (nf.canonical.a >= nf.canonical.b && nf.canonical.b >= Float.abs nf.canonical.c);
    Alcotest.(check bool)
      (Printf.sprintf "reassembles (err %.3g)" (Mat.frobenius_dist (Coupling.reassemble nf) h))
      true
      (Mat.equal ~tol:1e-7 (Coupling.reassemble nf) h)
  done

let test_normal_form_of_canonical () =
  (* already-canonical couplings come back unchanged *)
  let h = Coupling.make 1.0 0.6 (-0.3) in
  let nf = Coupling.normal_form (Coupling.matrix h) in
  check_float ~tol:1e-9 "a" h.a nf.canonical.a;
  check_float ~tol:1e-9 "b" h.b nf.canonical.b;
  check_float ~tol:1e-9 "|c|" (Float.abs h.c) (Float.abs nf.canonical.c)

(* ------------------------------------------------------------------ tau *)

let test_tau_known_xy () =
  let h = Coupling.xy ~g:1.0 in
  check_float ~tol:1e-12 "cnot" (pi /. 2.0) (Tau.tau_opt h Weyl.Coords.cnot);
  check_float ~tol:1e-12 "iswap" (pi /. 2.0) (Tau.tau_opt h Weyl.Coords.iswap);
  check_float ~tol:1e-12 "sqisw" (pi /. 4.0) (Tau.tau_opt h Weyl.Coords.sqisw);
  check_float ~tol:1e-12 "b" (pi /. 2.0) (Tau.tau_opt h Weyl.Coords.b_gate);
  check_float ~tol:1e-12 "swap" (3.0 *. pi /. 4.0) (Tau.tau_opt h Weyl.Coords.swap)

let test_tau_known_xx () =
  let h = Coupling.xx ~g:1.0 in
  check_float ~tol:1e-12 "cnot" (pi /. 4.0) (Tau.tau_opt h Weyl.Coords.cnot);
  check_float ~tol:1e-12 "iswap" (pi /. 2.0) (Tau.tau_opt h Weyl.Coords.iswap);
  check_float ~tol:1e-12 "sqisw" (pi /. 4.0) (Tau.tau_opt h Weyl.Coords.sqisw);
  check_float ~tol:1e-12 "b" (3.0 *. pi /. 8.0) (Tau.tau_opt h Weyl.Coords.b_gate)

let test_tau_identity_is_zero () =
  let h = Coupling.xy ~g:1.0 in
  check_float "identity" 0.0 (Tau.tau_opt h Weyl.Coords.identity)

let test_tau_subschemes_xy () =
  let h = Coupling.xy ~g:1.0 in
  let sub c = (Tau.plan h c).Tau.subscheme in
  Alcotest.(check string) "cnot is ND" "ND" (Tau.subscheme_to_string (sub Weyl.Coords.cnot));
  Alcotest.(check string) "iswap is ND" "ND" (Tau.subscheme_to_string (sub Weyl.Coords.iswap));
  Alcotest.(check string) "swap is EA" "EA+"
    (Tau.subscheme_to_string (sub Weyl.Coords.swap))

(* -------------------------------------------------------------- genashn *)

let check_solve ?(tol = 1e-6) msg h u =
  let r = Expect.solved ~what:msg (Genashn.solve_r h (Gate.su4 0 1 u)) in
  let rec_ = Genashn.reconstruct r in
  Alcotest.(check bool)
    (Printf.sprintf "%s reconstructs target (err %.3g)" msg (Mat.frobenius_dist rec_ u))
    true
    (Mat.equal ~tol rec_ u);
  check_float ~tol:1e-9 (msg ^ " tau optimal") (Tau.tau_opt h r.coords) r.pulse.tau

let test_solve_named_xy () =
  let h = Coupling.xy ~g:1.0 in
  List.iter
    (fun (name, g) -> check_solve name h g)
    [
      ("cnot", Quantum.Gates.cnot);
      ("cz", Quantum.Gates.cz);
      ("iswap", Quantum.Gates.iswap);
      ("sqisw", Quantum.Gates.sqisw);
      ("b", Quantum.Gates.b_gate);
      ("swap", Quantum.Gates.swap);
    ]

let test_solve_named_xx () =
  let h = Coupling.xx ~g:1.0 in
  List.iter
    (fun (name, g) -> check_solve name h g)
    [
      ("cnot", Quantum.Gates.cnot);
      ("iswap", Quantum.Gates.iswap);
      ("sqisw", Quantum.Gates.sqisw);
      ("b", Quantum.Gates.b_gate);
      ("swap", Quantum.Gates.swap);
    ]

let test_solve_iswap_family_no_drive () =
  (* the iSWAP family under XY coupling needs no local drives (Fig. 6) *)
  let h = Coupling.xy ~g:1.0 in
  let p = Expect.solved (Genashn.solve_coords_r h Weyl.Coords.iswap) in
  check_float ~tol:1e-9 "x1" 0.0 p.drive_x1;
  check_float ~tol:1e-9 "x2" 0.0 p.drive_x2;
  check_float ~tol:1e-9 "delta" 0.0 p.delta

let test_solve_cnot_one_sided_drive () =
  (* the CNOT family under XY coupling drives only one qubit (Fig. 6) *)
  let h = Coupling.xy ~g:1.0 in
  let p = Expect.solved (Genashn.solve_coords_r h Weyl.Coords.cnot) in
  Alcotest.(check bool) "x1 nonzero" true (Float.abs p.drive_x1 > 0.1);
  check_float ~tol:1e-9 "x2 zero" 0.0 p.drive_x2;
  check_float ~tol:1e-9 "delta zero" 0.0 p.delta

let test_solve_swap_both_drives () =
  (* the SWAP family under XY coupling drives both qubits equally *)
  let h = Coupling.xy ~g:1.0 in
  let p = Expect.solved (Genashn.solve_coords_r h Weyl.Coords.swap) in
  Alcotest.(check bool) "equal magnitude" true
    (Float.abs (Float.abs p.drive_x1 -. Float.abs p.drive_x2) < 1e-8);
  Alcotest.(check bool) "nonzero" true (Float.abs p.drive_x1 > 0.01)

let test_solve_random_targets_xy () =
  let h = Coupling.xy ~g:1.0 in
  let solved = ref 0 in
  for k = 1 to 12 do
    let u = Quantum.Haar.su4 rng in
    (* skip near-identity classes: those are mirrored by the compiler *)
    let c = Weyl.Kak.coords_of u in
    if Weyl.Coords.norm1 c > 0.2 then begin
      check_solve (Printf.sprintf "haar %d %s" k (Weyl.Coords.to_string c)) h u;
      incr solved
    end
  done;
  Alcotest.(check bool) "solved a reasonable sample" true (!solved >= 6)

let test_solve_random_targets_random_coupling () =
  for k = 1 to 6 do
    let h = Coupling.random rng in
    let u = Quantum.Haar.su4 rng in
    let c = Weyl.Kak.coords_of u in
    if Weyl.Coords.norm1 c > 0.2 then
      check_solve (Printf.sprintf "random coupling %d" k) h u
  done

let test_solve_with_asymmetric_coupling () =
  (* c != 0 exercises the EA_opposite reduction *)
  let h = Coupling.make 1.0 0.5 0.25 in
  List.iter
    (fun (name, g) -> check_solve name h g)
    [ ("swap", Quantum.Gates.swap); ("iswap", Quantum.Gates.iswap); ("cnot", Quantum.Gates.cnot) ]

let test_near_identity_fails_or_solves () =
  (* an extreme near-identity class: optimal-time realization needs huge
     amplitudes; accept either a refusal (a failure, or a degraded answer
     outside the strict tolerance) or a verified solution *)
  let h = Coupling.xy ~g:1.0 in
  let c = Weyl.Coords.make 0.001 0.0005 0.0 in
  match Genashn.solve_coords_r h c with
  | Robust.Outcome.Failed _ -> ()
  | Robust.Outcome.Degraded (_, i) when i.Robust.Outcome.residual >= Expect.strict_tol -> ()
  | Robust.Outcome.Solved p | Robust.Outcome.Degraded (p, _) ->
    let got = Weyl.Kak.coords_of (Genashn.evolve h p) in
    Alcotest.(check bool) "if it solves, it is correct" true (Weyl.Coords.dist got c < 1e-6)

(* ------------------------------------------------------------- duration *)

let test_duration_table3_singles () =
  let xy = Coupling.xy ~g:1.0 and xxc = Coupling.xx ~g:1.0 in
  check_float ~tol:1e-3 "conv cnot 2.221" 2.221 (Duration.conventional_cnot_tau ~g:1.0);
  check_float ~tol:1e-3 "xy cnot 1.571" 1.571 (Duration.basis_gate_tau xy Duration.Cnot);
  check_float ~tol:1e-3 "xy iswap 1.571" 1.571 (Duration.basis_gate_tau xy Duration.Iswap);
  check_float ~tol:1e-3 "xy sqisw 0.785" 0.785 (Duration.basis_gate_tau xy Duration.Sqisw);
  check_float ~tol:1e-3 "xx cnot 0.785" 0.785 (Duration.basis_gate_tau xxc Duration.Cnot);
  check_float ~tol:1e-3 "xx iswap 1.571" 1.571 (Duration.basis_gate_tau xxc Duration.Iswap);
  check_float ~tol:1e-3 "xx b 1.178" 1.178 (Duration.basis_gate_tau xxc Duration.B)

let test_duration_gates_needed () =
  Alcotest.(check int) "cnot for haar" 3
    (Duration.gates_needed Duration.Cnot (Weyl.Coords.make 0.5 0.3 0.1));
  Alcotest.(check int) "cnot for z=0" 2
    (Duration.gates_needed Duration.Cnot (Weyl.Coords.make 0.5 0.3 0.0));
  Alcotest.(check int) "cnot itself" 1 (Duration.gates_needed Duration.Cnot Weyl.Coords.cnot);
  Alcotest.(check int) "identity" 0 (Duration.gates_needed Duration.Cnot Weyl.Coords.identity);
  Alcotest.(check int) "b always 2" 2
    (Duration.gates_needed Duration.B (Weyl.Coords.make 0.5 0.3 0.1));
  Alcotest.(check int) "sqisw inside polytope" 2
    (Duration.gates_needed Duration.Sqisw (Weyl.Coords.make 0.6 0.3 0.1));
  Alcotest.(check int) "sqisw outside polytope" 3
    (Duration.gates_needed Duration.Sqisw (Weyl.Coords.make 0.5 0.45 0.2))

let test_duration_haar_averages () =
  (* small-sample check of the Table 3 shape: SU(4) native ~1.34 g^-1 under
     XY; SQiSW cost ~2.21 gates *)
  let xy = Coupling.xy ~g:1.0 in
  let su4 = Duration.haar_average_par ~n:400 ~seed:5L (fun c -> Duration.tau_su4 xy c) in
  Alcotest.(check bool) (Printf.sprintf "su4 avg ~1.34 (got %.3f)" su4) true
    (su4 > 1.25 && su4 < 1.45);
  let sqisw_count =
    Duration.haar_average_par ~n:400 ~seed:6L (fun c ->
        float_of_int (Duration.gates_needed Duration.Sqisw c))
  in
  Alcotest.(check bool) (Printf.sprintf "sqisw cost ~2.21 (got %.3f)" sqisw_count) true
    (sqisw_count > 2.1 && sqisw_count < 2.35)

(* ------------------------------------------------- pinned pulse bytes *)

(* Every pulse of the six pauli-eff programs (plan eff, seed 1, XY
   coupling, one solve per 2Q gate), digested by float bits: the
   verdict, the four pulse parameters and both 1Q correction pairs. The
   digest was recorded before the solver had a class memo, so it pins
   that the memo, cold or warm, changes no byte. *)
let pauli_programs = [ "qaoa_8"; "qaoa_10"; "pf_6"; "pf_10"; "uccsd_8"; "uccsd_12" ]
let pauli_eff_pulse_digest = "91dd2c3e90b8d4226d129da340b3c074"

let xy = Coupling.xy ~g:1.0

let add_float_bits b x = Buffer.add_string b (Printf.sprintf "%Lx," (Int64.bits_of_float x))

let add_mat_bits b m =
  for i = 0 to Mat.rows m - 1 do
    for j = 0 to Mat.cols m - 1 do
      add_float_bits b (Mat.get_re m i j);
      add_float_bits b (Mat.get_im m i j)
    done
  done

let pauli_eff_digest () =
  let plan = Compiler.Passes.plan_of_mode Compiler.Passes.Eff in
  let suite = Benchmarks.Suite.suite () in
  let b = Buffer.create 65536 in
  let fl = add_float_bits b and mat = add_mat_bits b in
  let pair = Option.iter (fun (u, v) -> mat u; mat v) in
  List.iter
    (fun name ->
      let bench = List.find (fun (x : Benchmarks.Suite.bench) -> x.name = name) suite in
      match Compiler.Passes.compile_plan ~plan (Rng.create 1L) bench.program with
      | Error e -> Alcotest.fail (name ^ ": " ^ Robust.Err.to_string e)
      | Ok (out, _) ->
        Buffer.add_string b name;
        List.iter
          (fun (o : Reqisc.gate_outcome) ->
            match o.outcome with
            | Robust.Outcome.Solved i | Robust.Outcome.Degraded (i, _) ->
              Buffer.add_string b
                (match o.outcome with Robust.Outcome.Solved _ -> "s" | _ -> "d");
              let p = i.Reqisc.pulse in
              List.iter fl [ p.Genashn.tau; p.drive_x1; p.drive_x2; p.delta ];
              pair i.pre;
              pair i.post
            | Robust.Outcome.Failed _ -> Buffer.add_string b "f")
          (Reqisc.pulse_outcomes xy out.Compiler.Passes.circuit))
    pauli_programs;
  Digest.to_hex (Digest.string (Buffer.contents b))

let genashn_count name = Robust.Counters.get ~stage:"genashn" name
let solve_runs () = genashn_count "solve_run"
let memo_hits () = genashn_count "memo_hit"

let test_pinned_pauli_eff_pulses () =
  Robust.Fault.configure None;
  Genashn.memo_clear ();
  Alcotest.(check string) "cold memo" pauli_eff_pulse_digest (pauli_eff_digest ());
  let runs0 = solve_runs () and hits0 = memo_hits () in
  Alcotest.(check string) "warm memo" pauli_eff_pulse_digest (pauli_eff_digest ());
  Alcotest.(check int) "warm pass runs no root search" runs0 (solve_runs ());
  Alcotest.(check bool) "warm pass hits the memo" true (memo_hits () > hits0)

(* ------------------------------------------------------ class memo *)

(* an outcome as bytes: verdict, pulse float bits, degraded info *)
let outcome_bits (o : Genashn.pulse Robust.Outcome.t) =
  let pulse (p : Genashn.pulse) =
    String.concat ","
      (Tau.subscheme_to_string p.subscheme
      :: List.map
           (fun f -> Printf.sprintf "%Lx" (Int64.bits_of_float f))
           [ p.tau; p.drive_x1; p.drive_x2; p.delta ])
  in
  match o with
  | Robust.Outcome.Solved p -> "solved " ^ pulse p
  | Robust.Outcome.Degraded (p, i) ->
    Printf.sprintf "degraded %s %Lx %d %s" (pulse p)
      (Int64.bits_of_float i.Robust.Outcome.residual)
      i.retries i.note
  | Robust.Outcome.Failed e -> "failed " ^ Robust.Err.to_string e

(* a solve_r outcome as bytes: the pulse outcome, then the float bits of
   the class and of every matrix of the result *)
let result_bits (o : Genashn.result Robust.Outcome.t) =
  let b = Buffer.create 1024 in
  Buffer.add_string b (outcome_bits (Robust.Outcome.map (fun (r : Genashn.result) -> r.pulse) o));
  (match o with
  | Robust.Outcome.Solved r | Robust.Outcome.Degraded (r, _) ->
    List.iter (add_float_bits b) [ r.coords.x; r.coords.y; r.coords.z ];
    List.iter (add_mat_bits b) [ r.realized; r.a1; r.a2; r.b1; r.b2 ]
  | Robust.Outcome.Failed _ -> ());
  Buffer.contents b

let haar_unitaries n =
  let r = Rng.create 17L in
  List.init n (fun _ -> Quantum.Haar.su4 r)

let haar_classes n = List.map Weyl.Kak.coords_of (haar_unitaries n)

let named_gates =
  Quantum.Gates.[ cnot; cz; iswap; sqisw; b_gate; swap ]

(* an EA-subscheme class under XY, so the EA retry ladder is what runs *)
let ea_class =
  lazy
    (let is_ea c =
       match (Tau.plan xy c).Tau.subscheme with
       | Tau.EA_same | Tau.EA_opposite -> true
       | Tau.ND -> false
     in
     match
       List.find_opt is_ea
         (List.map
            (fun (x, y, z) -> Weyl.Coords.make x y z)
            [ (0.5, 0.3, 0.1); (0.7, 0.2, 0.1); (0.6, 0.5, 0.4); (0.3, 0.2, 0.1) ])
     with
     | Some c -> c
     | None -> Alcotest.fail "no EA-subscheme class under XY")

let test_memo_hit_identical () =
  Robust.Fault.configure None;
  List.iteri
    (fun k c ->
      Genashn.memo_clear ();
      let fresh = outcome_bits (Genashn.solve_coords_r xy c) in
      let runs0 = solve_runs () and hits0 = memo_hits () in
      let hit = outcome_bits (Genashn.solve_coords_r xy c) in
      Alcotest.(check string) (Printf.sprintf "haar %d bytes" k) fresh hit;
      Alcotest.(check int) "no root search on a hit" runs0 (solve_runs ());
      Alcotest.(check int) "hit counted" (hits0 + 1) (memo_hits ()))
    (haar_classes 8);
  (* solve_r, every field: cold memo, warm memo, a fresh pulse cache
     (miss, then hit) and a 2-domain map all give the same bytes *)
  let gates = named_gates @ haar_unitaries 3 in
  let solve g = result_bits (Genashn.solve_r xy (Gate.su4 0 1 g)) in
  Genashn.memo_clear ();
  let cold = List.map solve gates in
  let runs0 = solve_runs () in
  Alcotest.(check (list string)) "warm solve_r bytes" cold (List.map solve gates);
  Alcotest.(check int) "no root search on a warm pass" runs0 (solve_runs ());
  (match Cache.create () with
  | Error e -> Alcotest.fail e
  | Ok c ->
    let miss = Pulse_cache.with_cache c (fun () -> List.map solve gates) in
    (* re-installed, the memo misses and the store replays; a second
       pass under the same installation is a memo hit *)
    let hit, memo_hit =
      Pulse_cache.with_cache c (fun () ->
          let replays0 = genashn_count "cache_hit" in
          let hit = List.map solve gates in
          Alcotest.(check bool) "the store replayed" true (genashn_count "cache_hit" > replays0);
          let replays1 = genashn_count "cache_hit" in
          let memo_hit = List.map solve gates in
          Alcotest.(check int) "the memo answered" replays1 (genashn_count "cache_hit");
          (hit, memo_hit))
    in
    Cache.close c;
    Alcotest.(check (list string)) "pulse-cache miss bytes" cold miss;
    Alcotest.(check (list string)) "pulse-cache hit bytes" cold hit;
    Alcotest.(check (list string)) "memo hit over the pulse cache bytes" cold memo_hit);
  Genashn.memo_clear ();
  Alcotest.(check (list string)) "2-domain solve_r bytes" (cold @ cold)
    (Par.parallel_map ~domains:2 solve (gates @ gates))

let test_memo_keeps_budget () =
  Robust.Fault.configure None;
  Genashn.memo_clear ();
  ignore (Genashn.solve_coords_r xy (Lazy.force ea_class));
  Alcotest.(check int) "class memoized" 1 (Genashn.memo_length ());
  let budget = Robust.Budget.make ~max_seconds:0.0 () in
  match Genashn.solve_coords_r ~budget xy (Lazy.force ea_class) with
  | Robust.Outcome.Failed (Robust.Err.Budget_exceeded _) -> ()
  | o -> Alcotest.fail ("expected Budget_exceeded, got " ^ outcome_bits o)

let test_memo_keeps_faults () =
  Robust.Fault.configure None;
  Genashn.memo_clear ();
  let clean = outcome_bits (Genashn.solve_coords_r xy (Lazy.force ea_class)) in
  Fun.protect ~finally:(fun () -> Robust.Fault.configure None) (fun () ->
      Robust.Fault.configure (Some "ea_noconv:1");
      (match Genashn.solve_coords_r xy (Lazy.force ea_class) with
      | Robust.Outcome.Degraded (_, i) ->
        Alcotest.(check bool) "retried past the vetoed rung" true (i.Robust.Outcome.retries >= 1)
      | o -> Alcotest.fail ("expected a Degraded recovery, got " ^ outcome_bits o));
      Alcotest.(check int) "fault fired" 1 (List.assoc "ea_noconv" (Robust.Fault.hits ())));
  Alcotest.(check string) "faulted outcome was not memoized" clean
    (outcome_bits (Genashn.solve_coords_r xy (Lazy.force ea_class)))

let test_memo_bounded () =
  Robust.Fault.configure None;
  Genashn.memo_clear ();
  (* classes one ulp apart are distinct keys, and each solves like CNOT *)
  let k = 5 in
  let classes =
    let x = ref Weyl.Coords.cnot.x in
    List.init (Genashn.memo_capacity + k) (fun _ ->
        x := Float.pred !x;
        Weyl.Coords.make !x 0.0 0.0)
  in
  let evict0 = genashn_count "memo_evict" in
  List.iter (fun c -> ignore (Genashn.solve_coords_r xy c)) classes;
  Alcotest.(check int) "held at capacity" Genashn.memo_capacity (Genashn.memo_length ());
  Alcotest.(check int) "evictions counted" k (genashn_count "memo_evict" - evict0);
  let runs0 = solve_runs () in
  ignore (Genashn.solve_coords_r xy (List.hd classes));
  Alcotest.(check int) "least recently used class was evicted" (runs0 + 1) (solve_runs ())

let ea_gate () = Gate.su4 0 1 (Weyl.Kak.canonical (Lazy.force ea_class))

let test_memo_solve_r_faults () =
  Robust.Fault.configure None;
  Genashn.memo_clear ();
  let clean = result_bits (Genashn.solve_r xy (ea_gate ())) in
  List.iter
    (fun site ->
      Genashn.memo_clear ();
      Fun.protect ~finally:(fun () -> Robust.Fault.configure None) (fun () ->
          Robust.Fault.configure (Some (site ^ ":1"));
          ignore (Genashn.solve_r xy (ea_gate ()));
          Alcotest.(check int) (site ^ " fired") 1 (List.assoc site (Robust.Fault.hits ())));
      Alcotest.(check int) (site ^ " outcome not stored") 0 (Genashn.memo_length ());
      let runs0 = solve_runs () in
      Alcotest.(check string) (site ^ " then a clean solve") clean
        (result_bits (Genashn.solve_r xy (ea_gate ())));
      Alcotest.(check int) (site ^ " then a real root search") (runs0 + 1) (solve_runs ()))
    [ "ea_noconv"; "expm_nan" ]

let test_memo_solve_r_bounded () =
  Robust.Fault.configure None;
  Genashn.memo_clear ();
  (* CNOT-like classes 1e-7 apart: distinct keys after the target's KAK *)
  let k = 3 in
  let gates =
    List.init (Genashn.memo_capacity + k) (fun i ->
        Gate.su4 0 1
          (Weyl.Kak.canonical
             (Weyl.Coords.make (Weyl.Coords.cnot.x -. (1e-7 *. float_of_int (i + 1))) 0.0 0.0)))
  in
  let evict0 = genashn_count "memo_evict" in
  let first = result_bits (Genashn.solve_r xy (List.hd gates)) in
  List.iter (fun g -> ignore (Genashn.solve_r xy g)) (List.tl gates);
  Alcotest.(check int) "held at capacity" Genashn.memo_capacity (Genashn.memo_length ());
  Alcotest.(check int) "evictions counted" k (genashn_count "memo_evict" - evict0);
  let runs0 = solve_runs () in
  Alcotest.(check string) "evicted class solves to the same bytes" first
    (result_bits (Genashn.solve_r xy (List.hd gates)));
  Alcotest.(check int) "least recently used class was evicted" (runs0 + 1) (solve_runs ())

let test_memo_realized_private () =
  Robust.Fault.configure None;
  Genashn.memo_clear ();
  let scribble = function
    | Robust.Outcome.Solved (r : Genashn.result) | Robust.Outcome.Degraded (r, _) ->
      for i = 0 to 3 do
        for j = 0 to 3 do
          Mat.set r.realized i j (Cx.mk 42.0 42.0)
        done
      done
    | Robust.Outcome.Failed e -> Alcotest.fail (Robust.Err.to_string e)
  in
  let cold = Genashn.solve_r xy (Gate.su4 0 1 Quantum.Gates.cnot) in
  let bits = result_bits cold in
  scribble cold;
  let hit = Genashn.solve_r xy (Gate.su4 0 1 Quantum.Gates.cnot) in
  Alcotest.(check string) "writing a cold result leaves the memo" bits (result_bits hit);
  scribble hit;
  Alcotest.(check string) "writing a hit leaves the memo" bits
    (result_bits (Genashn.solve_r xy (Gate.su4 0 1 Quantum.Gates.cnot)))

(* (solver/kak spans, solver/solve_coords spans) recorded while [f] runs *)
let solver_spans f =
  let (), r = Obs.Recorder.with_recorder f in
  let count name =
    List.length
      (List.filter
         (fun (e : Obs.Sink.span_event) -> e.stage = "solver" && e.name = name)
         (Obs.Recorder.events r))
  in
  (count "kak", count "solve_coords")

(* solver/kak spans recorded while [f] runs, and what it returned *)
let solver_kak_spans f =
  let out = ref None in
  let kak, _ = solver_spans (fun () -> out := Some (f ())) in
  (kak, Option.get !out)

let test_memo_kak_spans () =
  Robust.Fault.configure None;
  (match Cache.create () with
  | Error e -> Alcotest.fail e
  | Ok c ->
    Pulse_cache.with_cache c (fun () ->
        ignore (Genashn.solve_coords_r xy (Lazy.force ea_class));
        let kak, solves =
          solver_spans (fun () -> ignore (Genashn.solve_coords_r xy (Lazy.force ea_class)))
        in
        Alcotest.(check int) "the hit is recorded" 1 solves;
        Alcotest.(check int) "a memo hit over the pulse cache runs no KAK" 0 kak);
    Cache.close c);
  Genashn.memo_clear ();
  ignore (Genashn.solve_r xy (Gate.su4 0 1 Quantum.Gates.cnot));
  let kak, solves = solver_spans (fun () -> ignore (Genashn.solve_r xy (Gate.su4 0 1 Quantum.Gates.cnot))) in
  Alcotest.(check int) "one class lookup" 1 solves;
  Alcotest.(check int) "a warm-memo solve_r runs only the target's KAK" 1 kak

(* a gate that carries its KAK (every named entangler does) is solved
   with no decomposition at all once the memo is warm *)
let test_carried_kak_spans () =
  Robust.Fault.configure None;
  Genashn.memo_clear ();
  let c = Circuit.create 2 [ Gate.cx 0 1 ] in
  ignore (Reqisc.pulse_outcomes xy c);
  let d0 = Robust.Counters.get ~stage:"weyl" "decompose" in
  let kak, solves = solver_spans (fun () -> ignore (Reqisc.pulse_outcomes xy c)) in
  Alcotest.(check int) "one class lookup" 1 solves;
  Alcotest.(check int) "a carried KAK opens no solver/kak span" 0 kak;
  Alcotest.(check int) "and runs no decomposition" d0
    (Robust.Counters.get ~stage:"weyl" "decompose")

(* The memo fronts an installed pulse cache: a miss falls through to the
   store (and, on a store miss, to the solver), a hit leaves the store
   alone, and a re-installed store is read again, its replay carrying
   the cold solve's bits. *)
let test_memo_fronts_pulse_cache () =
  Robust.Fault.configure None;
  Genashn.memo_clear ();
  let ea = Lazy.force ea_class in
  let decompositions () = Robust.Counters.get ~stage:"weyl" "decompose" in
  let with_store f =
    match Cache.create () with
    | Error e -> Alcotest.fail e
    | Ok c -> Fun.protect ~finally:(fun () -> Cache.close c) (fun () -> f c)
  in
  with_store (fun c ->
      let cold, cold_r =
        Pulse_cache.with_cache c (fun () ->
            let misses0 = genashn_count "memo_miss" and runs0 = solve_runs () in
            let cold = outcome_bits (Genashn.solve_coords_r xy ea) in
            Alcotest.(check int) "first solve is a memo miss" (misses0 + 1)
              (genashn_count "memo_miss");
            Alcotest.(check int) "one root search" (runs0 + 1) (solve_runs ());
            let s = Cache.stats c in
            Alcotest.(check int) "a store miss" 1 s.Cache.misses;
            Alcotest.(check int) "one insert" 1 s.Cache.inserts;
            let hits0 = memo_hits () in
            Alcotest.(check string) "memo hit bytes" cold
              (outcome_bits (Genashn.solve_coords_r xy ea));
            Alcotest.(check int) "second solve is a memo hit" (hits0 + 1) (memo_hits ());
            let s' = Cache.stats c in
            Alcotest.(check (pair int int)) "the store is not probed"
              (s.Cache.hits, s.Cache.misses) (s'.Cache.hits, s'.Cache.misses);
            (cold, result_bits (Genashn.solve_r xy (Gate.cx 0 1))))
      in
      (* re-installed: each solve is a memo miss the store answers, with
         one decomposition (the tail's) and no root search *)
      let replayed what solve =
        Pulse_cache.with_cache c (fun () ->
            let misses0 = genashn_count "memo_miss" and runs0 = solve_runs () in
            let replays0 = genashn_count "cache_hit" and d0 = decompositions () in
            let kak, out = solver_kak_spans solve in
            Alcotest.(check int) (what ^ ": a memo miss") (misses0 + 1) (genashn_count "memo_miss");
            Alcotest.(check int) (what ^ ": the store replays") (replays0 + 1)
              (genashn_count "cache_hit");
            Alcotest.(check int) (what ^ ": no root search") runs0 (solve_runs ());
            Alcotest.(check int) (what ^ ": one decomposition, for the tail") (d0 + 1)
              (decompositions ());
            let d1 = decompositions () in
            Alcotest.(check string) (what ^ ": then a memo hit") out (solve ());
            Alcotest.(check int) (what ^ ": which decomposes nothing") d1 (decompositions ());
            (kak, out))
      in
      let _, replay = replayed "coords" (fun () -> outcome_bits (Genashn.solve_coords_r xy ea)) in
      Alcotest.(check string) "replayed pulse bytes" cold replay;
      let kak, replay_r =
        replayed "gate" (fun () -> result_bits (Genashn.solve_r xy (Gate.cx 0 1)))
      in
      Alcotest.(check string) "replayed solve_r bytes" cold_r replay_r;
      Alcotest.(check int) "a carried KAK opens no solver/kak span" 0 kak);
  (* a budget skips only the memo: a store miss still runs the budgeted
     search *)
  with_store (fun c ->
      Pulse_cache.with_cache c (fun () ->
          let budget = Robust.Budget.make ~max_seconds:0.0 () in
          match Genashn.solve_coords_r ~budget xy ea with
          | Robust.Outcome.Failed (Robust.Err.Budget_exceeded _) -> ()
          | o -> Alcotest.fail ("expected Budget_exceeded, got " ^ outcome_bits o)))

let test_memo_parallel_deterministic () =
  Robust.Fault.configure None;
  let classes = haar_classes 6 @ List.map Weyl.Kak.coords_of named_gates in
  (* each domain gets one copy, so both race on every class *)
  let work = classes @ classes in
  let run map =
    Genashn.memo_clear ();
    map (fun c -> outcome_bits (Genashn.solve_coords_r xy c)) work
  in
  let serial = run List.map in
  let par = run (Par.parallel_map ~domains:2) in
  Alcotest.(check (list string)) "2-domain map matches serial" serial par;
  Alcotest.(check (list string)) "warm 2-domain map matches serial" serial
    (Par.parallel_map ~domains:2
       (fun c -> outcome_bits (Genashn.solve_coords_r xy c))
       work)

let qcheck_tests =
  let arb_seed = QCheck.make QCheck.Gen.(map Int64.of_int (int_bound 1000000)) in
  [
    QCheck.Test.make ~count:30 ~name:"tau_opt is positive and bounded" arb_seed
      (fun seed ->
        let r = Rng.create seed in
        let h = Coupling.random r in
        let c = Weyl.Kak.coords_of (Quantum.Haar.su4 r) in
        let t = Tau.tau_opt h c in
        t >= 0.0 && t <= Float.pi /. Coupling.strength h *. 4.0);
    QCheck.Test.make ~count:20 ~name:"normal form reassembles" arb_seed (fun seed ->
        let r = Rng.create seed in
        let g = Mat.init 4 4 (fun _ _ -> Cx.mk (Rng.gaussian r) (Rng.gaussian r)) in
        let h = Mat.rsmul 0.5 (Mat.add g (Mat.dagger g)) in
        let nf = Coupling.normal_form h in
        Mat.equal ~tol:1e-6 (Coupling.reassemble nf) h);
  ]

let () =
  Alcotest.run "microarch"
    [
      ( "coupling",
        [
          Alcotest.test_case "basics" `Quick test_coupling_basics;
          Alcotest.test_case "matrix" `Quick test_coupling_matrix_hermitian;
          Alcotest.test_case "su2 of so3" `Quick test_su2_of_so3;
          Alcotest.test_case "normal form roundtrip" `Quick test_normal_form_roundtrip;
          Alcotest.test_case "normal form canonical" `Quick test_normal_form_of_canonical;
        ] );
      ( "tau",
        [
          Alcotest.test_case "known xy" `Quick test_tau_known_xy;
          Alcotest.test_case "known xx" `Quick test_tau_known_xx;
          Alcotest.test_case "identity" `Quick test_tau_identity_is_zero;
          Alcotest.test_case "subschemes" `Quick test_tau_subschemes_xy;
        ] );
      ( "genashn",
        [
          Alcotest.test_case "named gates xy" `Quick test_solve_named_xy;
          Alcotest.test_case "named gates xx" `Quick test_solve_named_xx;
          Alcotest.test_case "iswap needs no drive" `Quick test_solve_iswap_family_no_drive;
          Alcotest.test_case "cnot one-sided drive" `Quick test_solve_cnot_one_sided_drive;
          Alcotest.test_case "swap both drives" `Quick test_solve_swap_both_drives;
          Alcotest.test_case "random targets xy" `Slow test_solve_random_targets_xy;
          Alcotest.test_case "random coupling" `Slow test_solve_random_targets_random_coupling;
          Alcotest.test_case "asymmetric coupling" `Quick test_solve_with_asymmetric_coupling;
          Alcotest.test_case "near identity" `Quick test_near_identity_fails_or_solves;
        ] );
      ( "duration",
        [
          Alcotest.test_case "table3 singles" `Quick test_duration_table3_singles;
          Alcotest.test_case "gates needed" `Quick test_duration_gates_needed;
          Alcotest.test_case "haar averages" `Slow test_duration_haar_averages;
        ] );
      ( "pulse memo",
        [
          Alcotest.test_case "pinned pauli-eff pulses" `Quick test_pinned_pauli_eff_pulses;
          Alcotest.test_case "hit is bit-identical" `Quick test_memo_hit_identical;
          Alcotest.test_case "budget still enforced" `Quick test_memo_keeps_budget;
          Alcotest.test_case "faults still fire" `Quick test_memo_keeps_faults;
          Alcotest.test_case "bounded with evictions" `Quick test_memo_bounded;
          Alcotest.test_case "fronts the pulse cache" `Quick test_memo_fronts_pulse_cache;
          Alcotest.test_case "2-domain map deterministic" `Quick test_memo_parallel_deterministic;
          Alcotest.test_case "solve_r faults not stored" `Quick test_memo_solve_r_faults;
          Alcotest.test_case "solve_r evicts" `Quick test_memo_solve_r_bounded;
          Alcotest.test_case "realized is a copy" `Quick test_memo_realized_private;
          Alcotest.test_case "kak spans per path" `Quick test_memo_kak_spans;
          Alcotest.test_case "carried kak spans" `Quick test_carried_kak_spans;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
