(** Canonical Huffman coding over a byte alphabet.

    Used for the audit-record columns with skewed value distributions —
    primitive ids and data counts (paper §7).  The code lengths are
    serialized in front of the payload, so a block is self-describing. *)

val encode : bytes -> bytes
(** Compress a byte sequence.  Degenerate inputs (empty, single distinct
    symbol) are handled. *)

val decode : bytes -> bytes
(** Inverse of {!encode}.  Raises [Invalid_argument] on malformed input,
    truncated input included. *)
