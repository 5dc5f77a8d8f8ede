(** Approximate circuit synthesis by alternating gate-environment sweeps
    (QFactor-style): for a fixed placement of optimizable slots, the optimal
    single slot given all others is the unitary Procrustes solution of its
    contracted environment. Used for hierarchical synthesis, template
    pre-synthesis, DAG compacting and the BQSKit-like baseline. *)

open Numerics

type slot =
  | Free2q of int * int  (** optimizable SU(4) on a wire pair *)
  | Free1q of int  (** optimizable 1Q gate *)
  | Fixed of Gate.t  (** frozen gate (e.g. CX for CNOT-target synthesis) *)

(** [optimize rng ~n ~target slots] maximizes [|Tr(target† C)| / 2^n] over
    the free slots of the candidate circuit [C]. Returns the realized gates
    (in circuit order) and the final infidelity [1 - |Tr|/2^n]. Runs
    [restarts] random restarts (default 6) of at most [sweeps] sweeps
    (default 400) each, stopping early below [tol] (default 1e-10). A
    restart ends once its infidelity is below 1e-14, or after a run of
    stalled sweeps: 12 in a row before it reaches [tol], where a sweep
    stalls when it gains less than [max(1e-13·2^n, 1e-2·(2^n − |Tr|))] of
    trace fidelity, and 6 in a row below [tol], where it stalls when it
    gains less than 1e-16.

    Searches are memoized process-wide (2048 entries, least recently used
    evicted): a search draws from [rng] only when a restart starts, so a
    call with the same [rng] position, [sweeps], [restarts], [tol], [n],
    [target] bits and slots (a fixed gate by its wires and matrix bits;
    its label is not read) returns the same bits. A repeat is answered
    from the memo, with the caller's own fixed gates, and moves [rng] to
    where the search left it, so every later draw is the same as after a
    real search. Only an exact repeat hits, so the memo pays only in a
    process that compiles again. While a {!Robust.Fault} site is armed the
    memo is neither read nor filled. The ["compiler.synth"] counters
    ["memo_hit"], ["memo_miss"] and ["memo_evict"] count its traffic, and
    ["restarts"] and ["sweeps"] count only the restarts and sweeps of
    searches that actually ran. *)
val optimize :
  ?sweeps:int ->
  ?restarts:int ->
  ?tol:float ->
  Rng.t ->
  n:int ->
  target:Mat.t ->
  slot list ->
  Gate.t list * float

(** Entries in the search memo. *)
val memo_length : unit -> int

(** [memo_clear ()] empties the search memo, so the next search of every
    input runs (for timing a cold search, or pinning its counts). *)
val memo_clear : unit -> unit

(** [su4_template ~n m] is the standard ansatz with [m] SU(4) slots on the
    cyclic pair pattern plus 1Q boundary layers. *)
val su4_template : n:int -> int -> slot list

(** [cx_template ~n m] places [m] fixed CNOTs on the cyclic pattern with
    optimizable 1Q slots between them. *)
val cx_template : n:int -> int -> slot list

(** [min_su4 rng ~n ~target ~max_gates ~tol] finds the smallest number of
    SU(4) gates (trying 0, 1, ..., max_gates) whose template reaches the
    target within [tol]; returns the circuit gates and the 2Q count. *)
val min_su4 :
  ?tol:float ->
  Rng.t ->
  n:int ->
  target:Mat.t ->
  max_gates:int ->
  (Gate.t list * int) option

(** [min_cx_desc rng ~n ~target ~max_gates ~min_gates] searches downward
    from [max_gates]: cheap when the target is already near-optimal, since
    successful counts converge quickly and only the final failing count pays
    the full search budget. Returns the smallest successful count found. *)
val min_cx_desc :
  ?tol:float ->
  Rng.t ->
  n:int ->
  target:Mat.t ->
  max_gates:int ->
  min_gates:int ->
  (Gate.t list * int) option
