(** LEB128 variable-length integers with zigzag signed mapping, on native
    ints.

    Delta-encoded audit-record columns (timestamps, uArray identifiers,
    window numbers — all near-monotonic) shrink to one or two bytes per
    value this way.  The bytes equal those of the 64-bit zigzag encoding
    of the same value. *)

val write_unsigned : Buffer.t -> int -> unit
(** Raises [Invalid_argument] on a negative value. *)

val read_unsigned : bytes -> int ref -> int
(** Reads at the position in the ref, advancing it.  Raises
    [Invalid_argument] on a truncated encoding, one longer than 9 bytes,
    or one past [max_int]. *)

val write_signed : Buffer.t -> int -> unit

val read_signed : bytes -> int ref -> int
(** Like {!read_unsigned}; every 9-byte value decodes to some int. *)
