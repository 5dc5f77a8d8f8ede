(* Assertions shared by the test executables: unwrap the typed results and
   solver outcomes of the library into values or test failures. *)

(* [ok r] is the value of a typed result; an error fails the test. *)
let ok = function
  | Ok v -> v
  | Error e -> Alcotest.fail (Robust.Err.to_string e)

(* The genAshN strict class tolerance: a pulse whose realized class is
   this close to the target is a clean solve. *)
let strict_tol = 1e-6

(* [solved o] is the answer of a strict solve: [Solved], or [Degraded]
   with a residual below [strict_tol]. Anything else fails the test,
   naming [what]. *)
let solved ?(what = "solve") = function
  | Robust.Outcome.Solved v -> v
  | Robust.Outcome.Degraded (v, i) when i.Robust.Outcome.residual < strict_tol -> v
  | Robust.Outcome.Degraded (_, i) ->
    Alcotest.failf "%s: degraded solution only (class distance %.2g)" what
      i.Robust.Outcome.residual
  | Robust.Outcome.Failed e -> Alcotest.failf "%s: %s" what (Robust.Err.to_string e)

(* [qasm s] is the circuit [Qasm.parse] reads from [s]; a parse error
   fails the test. *)
let qasm s =
  match Qasm.parse s with
  | Ok c -> c
  | Error e -> Alcotest.fail (Qasm.parse_error_to_string e)
