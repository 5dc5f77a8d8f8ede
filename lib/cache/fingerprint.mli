(** Canonical quantized fingerprints for content-addressed caches.

    A fingerprint is built by appending typed fields to a tagged builder;
    floats are quantized (rounded to integer multiples of a [quantum],
    default 1e-9) so that keys are stable under sub-tolerance numerical
    noise while distinct problems stay distinct. The rendered key is a
    self-delimiting string, ASCII but for the fixed-width exact fields:
    equal keys imply equal field sequences.

    This is the shared helper behind the pulse-synthesis cache
    ([Tiered]/[Pulse_cache]), the template library's buckets ([Compiler.Template]), whose phase-invariant
    matrix key is [unitary], and the exact keys ([bits], [mat_bits]) of
    the compiler's synthesis memo and exchange table. *)

open Numerics

type t

(** [create tag] starts a fingerprint under a version/domain [tag]
    (e.g. ["genashn.pulse.v1"]). Bump the tag whenever the semantics of
    the cached computation change. *)
val create : string -> t

val int : t -> int -> t
val str : t -> string -> t

(** [float fp v] appends [round (v / quantum)]. Non-finite values get
    distinct symbolic encodings (never an exception). *)
val float : ?quantum:float -> t -> float -> t

val floats : ?quantum:float -> t -> float array -> t

(** [bits fp v] appends the exact IEEE bits of [v] (8 raw bytes): unlike
    [float], two values share the field only when their bits are equal. *)
val bits : t -> float -> t

(** [mat_bits fp m] appends the shape of [m] and the exact bits of every
    entry, the key of the memos that must return the bits a computation
    on [m] would ([Compiler.Synth]'s search memo, [Compiler.Compact]'s
    exchange table). *)
val mat_bits : t -> Mat.t -> t

(** [unitary fp u] appends a global-phase-invariant key of the matrix:
    entries are divided by the phase of the first entry with norm > 0.2,
    then quantized ([quantum] defaults to 1e-3 — coarse keys are meant for
    bucketing, with exact comparison inside the bucket). *)
val unitary : ?quantum:float -> t -> Mat.t -> t

(** The rendered key. The builder remains usable (keys of extended
    builders share this key as a prefix). *)
val key : t -> string
