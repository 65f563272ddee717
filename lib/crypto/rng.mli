(** Deterministic pseudo-random number generators.

    Two generators are provided: {!splitmix64}, used to seed other state,
    and xoshiro256** ({!t}), the engine's general-purpose PRNG.  Both are
    deterministic given their seed, which keeps every experiment in this
    repository reproducible.  The data plane also draws its opaque
    references from a {!t} seeded at TEE initialization. *)

type t
(** Mutable xoshiro256** state, kept unboxed: no draw allocates. *)

val create : seed:int64 -> t
(** [create ~seed] expands [seed] with splitmix64 into a full state. *)

val splitmix64 : int64 -> int64 * int64
(** [splitmix64 s] returns [(next_state, output)]. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val int_below : t -> int -> int
(** [int_below t n] is uniform in [\[0, n)].  [n] must be positive. *)

val float_unit : t -> float
(** Uniform float in [\[0, 1)]. *)

val int32_any : t -> int32
(** Uniform 32-bit value. *)

val state : t -> int64 * int64 * int64 * int64
(** Snapshot of the four xoshiro256** limbs, for sealed checkpoints.  A
    generator restored with {!set_state} continues the exact output
    sequence of the snapshotted one. *)

val set_state : t -> int64 * int64 * int64 * int64 -> unit
(** Overwrite [t]'s limbs with a {!state} snapshot in place. *)
