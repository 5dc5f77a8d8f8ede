(* Tests for the Weyl/KAK substrate: canonical coordinates of named gates,
   exact reconstruction, chamber membership, mirror transform. *)

open Numerics
open Quantum

let rng = Rng.create 11L
let pi4 = Float.pi /. 4.0

let check_coords ?(tol = 1e-8) msg expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: expected %s, got %s" msg (Weyl.Coords.to_string expected)
       (Weyl.Coords.to_string actual))
    true
    (Weyl.Coords.equal ~tol expected actual)

let check_reconstruct ?(tol = 1e-7) msg u =
  let d = Weyl.Kak.decompose u in
  let r = Weyl.Kak.reconstruct d in
  Alcotest.(check bool)
    (Printf.sprintf "%s: reconstruction error %.3g" msg (Mat.frobenius_dist u r))
    true
    (Mat.equal ~tol u r);
  Alcotest.(check bool)
    (Printf.sprintf "%s: coords in chamber %s" msg (Weyl.Coords.to_string d.coords))
    true
    (Weyl.Coords.in_chamber d.coords)

(* --------------------------------------------------------- named gates *)

let test_coords_cnot () =
  check_coords "cnot" Weyl.Coords.cnot (Weyl.Kak.coords_of Gates.cnot);
  check_coords "cz" Weyl.Coords.cnot (Weyl.Kak.coords_of Gates.cz)

let test_coords_iswap () =
  check_coords "iswap" Weyl.Coords.iswap (Weyl.Kak.coords_of Gates.iswap)

let test_coords_swap () =
  check_coords "swap" Weyl.Coords.swap (Weyl.Kak.coords_of Gates.swap)

let test_coords_sqisw () =
  check_coords "sqisw" Weyl.Coords.sqisw (Weyl.Kak.coords_of Gates.sqisw)

let test_coords_b () =
  check_coords "b gate" Weyl.Coords.b_gate (Weyl.Kak.coords_of Gates.b_gate)

let test_coords_identity () =
  check_coords "identity" Weyl.Coords.identity (Weyl.Kak.coords_of (Mat.identity 4));
  let local = Mat.kron (Haar.su2 rng) (Haar.su2 rng) in
  check_coords "local gate" Weyl.Coords.identity (Weyl.Kak.coords_of local)

let test_coords_can_roundtrip () =
  (* interior chamber point survives decomposition unchanged *)
  let c = Weyl.Coords.make 0.7 0.5 0.2 in
  check_coords "can interior" c (Weyl.Kak.coords_of (Weyl.Kak.canonical c));
  let c2 = Weyl.Coords.make 0.7 0.5 (-0.2) in
  check_coords "can interior negative z" c2 (Weyl.Kak.coords_of (Weyl.Kak.canonical c2))

(* ------------------------------------------------------- reconstruction *)

let test_reconstruct_named () =
  List.iter
    (fun (name, g) -> check_reconstruct name g)
    [
      ("cnot", Gates.cnot);
      ("cz", Gates.cz);
      ("swap", Gates.swap);
      ("iswap", Gates.iswap);
      ("sqisw", Gates.sqisw);
      ("b", Gates.b_gate);
      ("identity", Mat.identity 4);
      ("cphase", Gates.cphase 0.9);
    ]

let test_reconstruct_random () =
  for k = 1 to 20 do
    check_reconstruct (Printf.sprintf "haar %d" k) (Haar.su4 rng)
  done

let test_reconstruct_with_phase () =
  let u = Mat.smul (Cx.expi 1.234) (Haar.su4 rng) in
  check_reconstruct "phased unitary" u

let test_local_invariance () =
  (* coords are invariant under 1q dressing *)
  let u = Haar.su4 rng in
  let c = Weyl.Kak.coords_of u in
  let dressed =
    Mat.mul3
      (Mat.kron (Haar.su2 rng) (Haar.su2 rng))
      u
      (Mat.kron (Haar.su2 rng) (Haar.su2 rng))
  in
  check_coords "dressing invariant" c (Weyl.Kak.coords_of dressed);
  Alcotest.(check bool) "locally_equivalent" true (Weyl.Kak.locally_equivalent u dressed)

let test_locals_are_unitary () =
  let d = Weyl.Kak.decompose (Haar.su4 rng) in
  List.iter
    (fun (n, m) -> Alcotest.(check bool) n true (Mat.is_unitary ~tol:1e-7 m))
    [ ("a1", d.a1); ("a2", d.a2); ("b1", d.b1); ("b2", d.b2) ]

(* --------------------------------------------------------------- mirror *)

let test_mirror_formula () =
  (* Weyl(SWAP * Can v) = mirror v for random chamber points *)
  for _ = 1 to 20 do
    let x = Rng.uniform rng ~lo:0.0 ~hi:pi4 in
    let y = Rng.uniform rng ~lo:0.0 ~hi:x in
    let z = Rng.uniform rng ~lo:(-.y) ~hi:y in
    let z = if x >= pi4 -. 1e-9 then Float.abs z else z in
    let c = Weyl.Coords.make x y z in
    let mirrored = Weyl.Kak.coords_of (Mat.mul Gates.swap (Weyl.Kak.canonical c)) in
    check_coords ~tol:1e-7
      (Printf.sprintf "mirror of %s" (Weyl.Coords.to_string c))
      (Weyl.Coords.mirror c) mirrored
  done

let test_mirror_moves_identityward_gates () =
  (* near-identity classes land near the SWAP corner *)
  let c = Weyl.Coords.make 0.01 0.005 0.001 in
  let m = Weyl.Coords.mirror c in
  Alcotest.(check bool) "mirror far from origin" true (Weyl.Coords.norm1 m > 2.0);
  Alcotest.(check bool) "mirror in chamber" true (Weyl.Coords.in_chamber m)

let test_mirror_involution () =
  (* applying the mirror twice returns the original class *)
  for _ = 1 to 10 do
    let x = Rng.uniform rng ~lo:0.0 ~hi:pi4 in
    let y = Rng.uniform rng ~lo:0.0 ~hi:x in
    let z = Rng.uniform rng ~lo:(-.y) ~hi:y in
    let z = if x >= pi4 -. 1e-9 then Float.abs z else z in
    let c = Weyl.Coords.make x y z in
    check_coords ~tol:1e-9 "double mirror" c (Weyl.Coords.mirror (Weyl.Coords.mirror c))
  done

(* -------------------------------------------------------------- chamber *)

let test_chamber_membership () =
  let ok x y z = Weyl.Coords.in_chamber (Weyl.Coords.make x y z) in
  Alcotest.(check bool) "origin" true (ok 0.0 0.0 0.0);
  Alcotest.(check bool) "swap corner" true (ok pi4 pi4 pi4);
  Alcotest.(check bool) "negative z interior" true (ok 0.5 0.3 (-0.2));
  Alcotest.(check bool) "x beyond pi/4" false (ok 1.0 0.1 0.0);
  Alcotest.(check bool) "unsorted" false (ok 0.2 0.5 0.0);
  Alcotest.(check bool) "negative z at x=pi/4" false (ok pi4 0.3 (-0.2))

(* ----------------------------------------------------------------- bits *)

(* The ensemble whose decompositions are pinned bit for bit: 500 seeded
   Haar SU(4)s, the named gates, the chamber faces (x = pi/4 with z < 0,
   the identity, local-only inputs, SWAP * g) and every 2Q gate of the
   pauli-eff benchmark programs compiled under plan eff. *)
let bits_ensemble () =
  let r = Rng.create 35L in
  let haar = List.init 500 (fun _ -> Haar.su4 r) in
  let named =
    [ Gates.cnot; Gates.cz; Gates.swap; Gates.iswap; Gates.sqisw; Gates.b_gate; Gates.cphase 0.9 ]
  in
  let can x y z = Weyl.Kak.canonical (Weyl.Coords.make x y z) in
  let local () = Mat.kron (Haar.su2 r) (Haar.su2 r) in
  let dress u = Mat.mul3 (local ()) u (local ()) in
  let faces =
    [
      can pi4 0.3 (-0.2);
      dress (can pi4 0.3 (-0.2));
      can pi4 0.1 (-0.05);
      Mat.identity 4;
      local ();
      local ();
      Mat.kron Gates.h Gates.s;
      Mat.mul Gates.swap (can 0.6 0.3 0.1);
      Mat.mul Gates.swap (can 0.2 0.1 (-0.05));
      Mat.mul Gates.swap Gates.cnot;
      Mat.mul Gates.swap (Haar.su4 r);
    ]
  in
  let pauli =
    List.concat_map
      (fun name ->
        let prog =
          (List.find
             (fun (b : Benchmarks.Suite.bench) -> b.name = name)
             (Benchmarks.Suite.suite ()))
            .program
        in
        match
          Compiler.Passes.compile_plan
            ~plan:(Compiler.Passes.plan_of_mode Compiler.Passes.Eff)
            (Rng.create 1L) prog
        with
        | Error e -> Alcotest.failf "compile %s: %s" name (Robust.Err.to_string e)
        | Ok (out, _) ->
          List.filter_map
            (fun (g : Gate.t) -> if Gate.is_2q g then Some g.mat else None)
            out.Compiler.Passes.circuit.Circuit.gates)
      [ "qaoa_8"; "qaoa_10"; "pf_6"; "pf_10"; "uccsd_8"; "uccsd_12" ]
  in
  haar @ named @ faces @ pauli

(* every returned float's IEEE bits: a1, a2, b1, b2, coords *)
let add_kak_bits b (d : Weyl.Kak.t) =
  let fl x = Buffer.add_string b (Printf.sprintf "%Lx," (Int64.bits_of_float x)) in
  let mat m =
    for i = 0 to Mat.rows m - 1 do
      for j = 0 to Mat.cols m - 1 do
        fl (Mat.get_re m i j);
        fl (Mat.get_im m i j)
      done
    done
  in
  mat d.a1;
  mat d.a2;
  mat d.b1;
  mat d.b2;
  fl d.coords.x;
  fl d.coords.y;
  fl d.coords.z

let md5_of_kaks ds =
  let b = Buffer.create (1 lsl 16) in
  List.iter (add_kak_bits b) ds;
  Digest.to_hex (Digest.string (Buffer.contents b))

let kak_bits us = md5_of_kaks (List.map Weyl.Kak.decompose us)

(* recorded before the decomposition moved onto a per-domain workspace;
   that rewrite must leave every bit where it was *)
let ensemble_bits = "1e8ca6a15295b3f59dc50197306d6114"

let test_bits_pinned () =
  Robust.Fault.configure None;
  let us = bits_ensemble () in
  Alcotest.(check int) "ensemble size" 851 (List.length us);
  Alcotest.(check string) "kak bits" ensemble_bits (kak_bits us)

(* the verdict of [decompose_r] on one Haar matrix with a fault site armed
   for its first k calls: [mul_nan] poisons the first products, and
   [jacobi_stall] stops the first k mixing angles' eigensolves after one
   sweep, so the angle that succeeds (or none) depends on the call order *)
let test_bits_fault_verdicts () =
  let u = Haar.su4 (Rng.create 36L) in
  let verdict site k =
    Robust.Fault.configure (Some (Printf.sprintf "%s:%d" site k));
    match Weyl.Kak.decompose_r u with
    | Ok d -> Printf.sprintf "%s:%d ok %s" site k (md5_of_kaks [ d ])
    | Error e -> Printf.sprintf "%s:%d %s" site k (Robust.Err.to_string e)
  in
  let got site =
    Fun.protect ~finally:(fun () -> Robust.Fault.configure None) (fun () ->
        List.init 8 (fun i -> verdict site (i + 1)))
  in
  Alcotest.(check (list string))
    "mul_nan"
    (List.init 8 (fun i -> Printf.sprintf "mul_nan:%d kak: ill-conditioned: input not unitary" (i + 1)))
    (got "mul_nan");
  Alcotest.(check (list string))
    "jacobi_stall"
    [
      "jacobi_stall:1 ok a601152a18e16b947e707aaf3e4890a5";
      "jacobi_stall:2 ok e495ca1c54b932239d23e7c15c92b0bf";
      "jacobi_stall:3 ok 948026d9abef95fa0b07ce422a88125d";
      "jacobi_stall:4 ok 081e3dd02e54d8f198f9f61934f75162";
      "jacobi_stall:5 ok 0602aafd0eb7599e63f341c8f168940c";
      "jacobi_stall:6 ok 0b803fbcf57bd6cf28718b36d0cfcb30";
      "jacobi_stall:7 ok 733abb41675279a279dc22e52ea45a23";
      "jacobi_stall:8 kak: ill-conditioned: eig.simultaneous: ill-conditioned: no mixing angle \
       separated the joint spectrum";
    ]
    (got "jacobi_stall")

(* Two domains, then two systhreads of one domain, decompose the ensemble
   at once: each must read the serial bits. The threads repeat it so the
   tick thread preempts one inside a decomposition. *)
let test_bits_concurrent () =
  Robust.Fault.configure None;
  let us = bits_ensemble () in
  let serial = kak_bits us in
  List.iteri
    (fun i got -> Alcotest.(check string) (Printf.sprintf "domain %d" i) serial got)
    (Par.parallel_map ~domains:2 (fun _ -> kak_bits us) [ 0; 1 ]);
  let passes = 4 in
  let got = Array.make_matrix 2 passes "" in
  let run t () = for p = 0 to passes - 1 do got.(t).(p) <- kak_bits us done in
  List.iter Thread.join (List.init 2 (fun t -> Thread.create (run t) ()));
  Array.iteri
    (fun t row ->
      Array.iteri
        (fun p g -> Alcotest.(check string) (Printf.sprintf "thread %d pass %d" t p) serial g)
        row)
    got

let qcheck_tests =
  let arb_seed = QCheck.make QCheck.Gen.(map Int64.of_int (int_bound 1000000)) in
  [
    QCheck.Test.make ~count:60 ~name:"kak reconstructs haar unitaries" arb_seed
      (fun seed ->
        let u = Haar.su4 (Rng.create seed) in
        let d = Weyl.Kak.decompose u in
        Mat.equal ~tol:1e-6 (Weyl.Kak.reconstruct d) u
        && Weyl.Coords.in_chamber ~tol:1e-7 d.coords);
    QCheck.Test.make ~count:30 ~name:"coords stable under left/right locals" arb_seed
      (fun seed ->
        let r = Rng.create seed in
        let u = Haar.su4 r in
        let l = Mat.kron (Haar.su2 r) (Haar.su2 r) in
        Weyl.Coords.dist (Weyl.Kak.coords_of u) (Weyl.Kak.coords_of (Mat.mul l u)) < 1e-6);
  ]

let () =
  Alcotest.run "weyl"
    [
      ( "coords",
        [
          Alcotest.test_case "cnot/cz" `Quick test_coords_cnot;
          Alcotest.test_case "iswap" `Quick test_coords_iswap;
          Alcotest.test_case "swap" `Quick test_coords_swap;
          Alcotest.test_case "sqisw" `Quick test_coords_sqisw;
          Alcotest.test_case "b gate" `Quick test_coords_b;
          Alcotest.test_case "identity/local" `Quick test_coords_identity;
          Alcotest.test_case "can roundtrip" `Quick test_coords_can_roundtrip;
        ] );
      ( "reconstruct",
        [
          Alcotest.test_case "named gates" `Quick test_reconstruct_named;
          Alcotest.test_case "random unitaries" `Quick test_reconstruct_random;
          Alcotest.test_case "global phase" `Quick test_reconstruct_with_phase;
          Alcotest.test_case "local invariance" `Quick test_local_invariance;
          Alcotest.test_case "locals unitary" `Quick test_locals_are_unitary;
        ] );
      ( "mirror",
        [
          Alcotest.test_case "formula vs matrix" `Quick test_mirror_formula;
          Alcotest.test_case "near-identity" `Quick test_mirror_moves_identityward_gates;
          Alcotest.test_case "involution" `Quick test_mirror_involution;
        ] );
      ("chamber", [ Alcotest.test_case "membership" `Quick test_chamber_membership ]);
      ( "bits",
        [
          Alcotest.test_case "pinned ensemble" `Quick test_bits_pinned;
          Alcotest.test_case "fault verdicts" `Quick test_bits_fault_verdicts;
          Alcotest.test_case "domains and threads" `Quick test_bits_concurrent;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
