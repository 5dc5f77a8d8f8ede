(* SoA-vs-boxed microbenchmarks for the numerics substrate.

     dune exec bench/microbench.exe [-- --smoke] [--out PATH]

   For each kernel (mul, expm, eig, apply_gate) and size n in {4, 16, 64}
   this first cross-checks that the SoA kernel agrees with the boxed seed
   implementation ([Numerics.Boxed]), then times both. A disagreement is a
   hard error (exit 1). Also times the domain-parallel Haar sweep against
   its 1-domain run and a small table2-style end-to-end compilation pass,
   and writes everything as JSON (default: BENCH_numerics.json in the
   current directory). [--smoke] shrinks sizes and repetitions so the run
   fits in a test target. *)

open Numerics

let mismatch = ref false

let check name ok =
  if not ok then begin
    Printf.eprintf "microbench: MISMATCH in %s (SoA vs boxed)\n%!" name;
    mismatch := true
  end

let random_mat rng n = Mat.init n n (fun _ _ -> Cx.mk (Rng.gaussian rng) (Rng.gaussian rng))

let random_herm rng n =
  let a = random_mat rng n in
  Mat.rsmul 0.5 (Mat.add a (Mat.dagger a))

(* seconds per call: warm twice, then grow reps until the batch is long
   enough to trust the clock *)
let time ~min_time f =
  f ();
  f ();
  let rec run reps =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      f ()
    done;
    let dt = Unix.gettimeofday () -. t0 in
    if dt >= min_time || reps >= 1 lsl 20 then dt /. float_of_int reps else run (reps * 4)
  in
  run 1

type kernel_row = { kernel : string; n : int; boxed_s : float; soa_s : float }

let speedup r = r.boxed_s /. r.soa_s

let bench_mul ~min_time rng n =
  let a = random_mat rng n and b = random_mat rng n in
  let ba = Boxed.of_mat a and bb = Boxed.of_mat b in
  check
    (Printf.sprintf "mul n=%d" n)
    (Mat.frobenius_dist (Mat.mul a b) (Boxed.to_mat (Boxed.mul ba bb))
    < 1e-9 *. float_of_int n);
  let dst = Mat.create n n in
  {
    kernel = "mul";
    n;
    boxed_s = time ~min_time (fun () -> ignore (Boxed.mul ba bb));
    soa_s = time ~min_time (fun () -> Mat.mul_into ~dst a b);
  }

let bench_expm ~min_time rng n =
  let h = random_herm rng n in
  let bh = Boxed.of_mat h in
  let t = 0.37 in
  check
    (Printf.sprintf "expm n=%d" n)
    (Mat.frobenius_dist (Expm.herm_expi h ~t) (Boxed.to_mat (Boxed.herm_expi bh ~t))
    < 1e-9 *. float_of_int n);
  let ws = Expm.make_ws n in
  let dst = Mat.create n n in
  {
    kernel = "expm";
    n;
    boxed_s = time ~min_time (fun () -> ignore (Boxed.herm_expi bh ~t));
    soa_s = time ~min_time (fun () -> Expm.herm_expi_into ws ~dst h ~t);
  }

let bench_eig ~min_time rng n =
  let h = random_herm rng n in
  let bh = Boxed.of_mat h in
  let sorted a =
    let a = Array.copy a in
    Array.sort compare a;
    a
  in
  let w_soa = sorted (fst (Eig.hermitian h)) in
  let w_box = sorted (fst (Boxed.jacobi bh)) in
  check
    (Printf.sprintf "eig n=%d" n)
    (Array.for_all2 (fun x y -> Float.abs (x -. y) < 1e-8) w_soa w_box);
  let a = Mat.create n n and v = Mat.create n n and w = Array.make n 0.0 in
  {
    kernel = "eig";
    n;
    boxed_s = time ~min_time (fun () -> ignore (Boxed.jacobi bh));
    soa_s =
      time ~min_time (fun () ->
          Mat.copy_into ~dst:a h;
          ignore (Eig.jacobi_into ~a ~v ~w ()));
  }

let bench_apply_gate ~min_time rng ~nq n =
  let k = int_of_float (Float.round (Float.log2 (float_of_int n))) in
  let gm = Quantum.Haar.unitary rng n in
  let qubits = Array.init k (fun i -> i) in
  let g = Gate.make "bench" qubits gm in
  let bm = Boxed.of_mat gm in
  let dim = 1 lsl nq in
  let st0 = Array.init dim (fun _ -> Cx.mk (Rng.gaussian rng) (Rng.gaussian rng)) in
  let st1 = Array.copy st0 and st2 = Array.copy st0 in
  State.apply_gate_arr ~n:nq st1 g;
  Boxed.apply_gate ~n:nq st2 bm ~qubits;
  let agree = ref true in
  Array.iteri
    (fun i z -> if Cx.norm (Cx.( -: ) z st2.(i)) > 1e-9 then agree := false)
    st1;
  check (Printf.sprintf "apply_gate n=%d (nq=%d)" n nq) !agree;
  let st = Array.copy st0 in
  {
    kernel = "apply_gate";
    n;
    boxed_s =
      time ~min_time (fun () ->
          Array.blit st0 0 st 0 dim;
          Boxed.apply_gate ~n:nq st bm ~qubits);
    soa_s =
      time ~min_time (fun () ->
          Array.blit st0 0 st 0 dim;
          State.apply_gate_arr ~n:nq st g);
  }

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let smoke = List.mem "--smoke" args in
  let out =
    let rec go = function
      | "--out" :: p :: _ -> p
      | _ :: rest -> go rest
      | [] -> "BENCH_numerics.json"
    in
    go args
  in
  let min_time = if smoke then 0.01 else 0.2 in
  let sizes = if smoke then [ 4; 16 ] else [ 4; 16; 64 ] in
  let nq = if smoke then 6 else 10 in
  let rng = Rng.create 42L in
  let rows =
    List.concat_map
      (fun n ->
        [
          bench_mul ~min_time rng n;
          bench_expm ~min_time rng n;
          bench_eig ~min_time rng n;
          bench_apply_gate ~min_time rng ~nq n;
        ])
      sizes
  in
  List.iter
    (fun r ->
      Printf.printf "%-11s n=%-3d boxed %10.3f us   soa %10.3f us   speedup %5.2fx\n%!"
        r.kernel r.n (1e6 *. r.boxed_s) (1e6 *. r.soa_s) (speedup r))
    rows;
  (* domain-parallel Haar sweep: same seed, 1 domain vs default *)
  let xy = Microarch.Coupling.xy ~g:1.0 in
  let sweep_n = if smoke then 50 else 400 in
  let sweep d = Microarch.Duration.haar_average_par ~domains:d ~n:sweep_n ~seed:123L (fun c -> Microarch.Tau.tau_opt xy c) in
  let domains = Par.default_domains () in
  let r1 = sweep 1 in
  let rd = sweep domains in
  check "haar_sweep determinism across domain counts" (r1 = rd);
  let seq_s = time ~min_time (fun () -> ignore (sweep 1)) in
  let par_s = time ~min_time (fun () -> ignore (sweep domains)) in
  Printf.printf "haar sweep  n=%-3d seq %10.3f ms   par(%d) %9.3f ms   speedup %5.2fx\n%!"
    sweep_n (1e3 *. seq_s) domains (1e3 *. par_s) (seq_s /. par_s);
  (* table2-style end-to-end pass: compile a few suite benches both ways *)
  let suite = Benchmarks.Suite.suite () in
  let e2e_count = if smoke then 2 else 3 in
  let e2e =
    List.filteri (fun i _ -> i < e2e_count) suite
    |> List.map (fun (b : Benchmarks.Suite.bench) ->
           let crng = Rng.create 7L in
           let t0 = Unix.gettimeofday () in
           ignore (Compiler.Pipeline.compile ~mode:Compiler.Pipeline.Eff crng b.program);
           let eff_s = Unix.gettimeofday () -. t0 in
           let t0 = Unix.gettimeofday () in
           ignore (Compiler.Pipeline.compile ~mode:Compiler.Pipeline.Full crng b.program);
           let full_s = Unix.gettimeofday () -. t0 in
           Printf.printf "end-to-end  %-14s eff %7.3f s   full %7.3f s\n%!" b.name eff_s
             full_s;
           (b.name, eff_s, full_s))
  in
  let module Json = Robust.Json in
  let int = Util.int in
  let find k n = List.find (fun r -> r.kernel = k && r.n = n) rows in
  Util.write_json ~tag:"microbench" out
    (Json.Obj
       [
         ("cores", int (Domain.recommended_domain_count ()));
         ("domains", int domains);
         ("smoke", Json.Bool smoke);
         ( "kernels",
           Json.Arr
             (List.map
                (fun r ->
                  Json.Obj
                    [
                      ("kernel", Json.Str r.kernel); ("n", int r.n);
                      ("boxed_us", Json.Num (1e6 *. r.boxed_s));
                      ("soa_us", Json.Num (1e6 *. r.soa_s)); ("speedup", Json.Num (speedup r));
                    ])
                rows) );
         ( "haar_sweep",
           Json.Obj
             [
               ("n", int sweep_n); ("domains", int domains);
               ("seq_ms", Json.Num (1e3 *. seq_s)); ("par_ms", Json.Num (1e3 *. par_s));
               ("speedup", Json.Num (seq_s /. par_s)); ("deterministic", Json.Bool (r1 = rd));
             ] );
         ( "end_to_end",
           Json.Arr
             (List.map
                (fun (name, eff_s, full_s) ->
                  Json.Obj
                    [ ("bench", Json.Str name); ("eff_s", Json.Num eff_s); ("full_s", Json.Num full_s) ])
                e2e) );
         ( "acceptance",
           Json.Obj
             [
               ("mul4_speedup", Json.Num (speedup (find "mul" 4)));
               ("expm4_speedup", Json.Num (speedup (find "expm" 4)));
             ] );
       ]);
  if !mismatch then exit 1
