(** Typed failure taxonomy shared by the solver and compiler stages.

    Carried context is what a retry ladder or an operator needs: which
    stage failed, the Weyl target (when there is one), iterations spent
    and the best residual reached. See DESIGN.md "Robustness layer". *)

type t =
  | Non_convergence of {
      stage : string;
      target : (float * float * float) option;
      iterations : int;
      residual : float;
    }
  | Ill_conditioned of { stage : string; detail : string }
  | Invalid_hamiltonian of { stage : string; detail : string }
  | Nan_detected of { stage : string; site : string }
  | Budget_exceeded of {
      stage : string;
      iterations : int;
      elapsed : float;
      residual : float;
    }

(** [stage e] is the pipeline stage that produced [e]. *)
val stage : t -> string

(** [kind e] is a stable snake_case tag (for counters / JSON). *)
val kind : t -> string

val to_string : t -> string

(** [ok_exn r] is [v] when [r] is [Ok v] and raises [Failure (to_string e)]
    when it is [Error e], for callers whose own contract is to raise. *)
val ok_exn : ('a, t) result -> 'a

val pp : Format.formatter -> t -> unit

(** Process exit code a CLI should use for this error (solver errors: 4). *)
val exit_code : t -> int
