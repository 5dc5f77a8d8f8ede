(* Typed failure taxonomy for the solver/compiler stack.

   Every recoverable failure in the numerics -> microarch -> compiler chain
   is one of these variants, each carrying enough context (stage name,
   target Weyl coordinates when applicable, iterations spent, best residual
   reached) to drive a retry ladder upstream or to print a useful
   diagnostic downstream. Every fallible entry point of the stack returns
   one of these (or an Outcome carrying one); strings appear only as
   renderings of these values at the CLI, the server and the bench. *)

type t =
  | Non_convergence of {
      stage : string;
      target : (float * float * float) option; (* Weyl coords, if known *)
      iterations : int;
      residual : float; (* best residual reached before giving up *)
    }
  | Ill_conditioned of { stage : string; detail : string }
  | Invalid_hamiltonian of { stage : string; detail : string }
  | Nan_detected of { stage : string; site : string }
  | Budget_exceeded of {
      stage : string;
      iterations : int;
      elapsed : float; (* seconds of wall clock spent *)
      residual : float; (* best residual at the moment the budget ran out *)
    }

let stage = function
  | Non_convergence { stage; _ }
  | Ill_conditioned { stage; _ }
  | Invalid_hamiltonian { stage; _ }
  | Nan_detected { stage; _ }
  | Budget_exceeded { stage; _ } -> stage

let kind = function
  | Non_convergence _ -> "non_convergence"
  | Ill_conditioned _ -> "ill_conditioned"
  | Invalid_hamiltonian _ -> "invalid_hamiltonian"
  | Nan_detected _ -> "nan_detected"
  | Budget_exceeded _ -> "budget_exceeded"

let to_string = function
  | Non_convergence { stage; target; iterations; residual } ->
    let tgt =
      match target with
      | None -> ""
      | Some (x, y, z) -> Printf.sprintf " target (%.4f, %.4f, %.4f)" x y z
    in
    Printf.sprintf "%s: did not converge%s after %d iterations (best residual %.3g)"
      stage tgt iterations residual
  | Ill_conditioned { stage; detail } -> Printf.sprintf "%s: ill-conditioned: %s" stage detail
  | Invalid_hamiltonian { stage; detail } ->
    Printf.sprintf "%s: invalid Hamiltonian: %s" stage detail
  | Nan_detected { stage; site } -> Printf.sprintf "%s: NaN detected at %s" stage site
  | Budget_exceeded { stage; iterations; elapsed; residual } ->
    Printf.sprintf "%s: budget exceeded (%d iterations, %.3fs, best residual %.3g)"
      stage iterations elapsed residual

let ok_exn = function Ok v -> v | Error e -> failwith (to_string e)
let pp ppf e = Format.pp_print_string ppf (to_string e)

(* Process exit code for CLI front ends: all solver-side failures are 4;
   parse errors (a different type, see Circuit.Qasm) are 3, usage is 2. *)
let exit_code (_ : t) = 4
