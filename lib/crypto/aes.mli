(** AES-128 block cipher (FIPS-197), from scratch, encryption only.

    Used by the engine for ingress decryption and egress encryption in CTR
    mode (see {!Ctr}), which only ever runs the forward cipher.  The state
    is four big-endian 32-bit column words; each of the nine full rounds is
    sixteen lookups into four 1 KB T-tables derived from the S-box at
    module initialization, and the last round uses the S-box alone.  The
    paper counts crypto inside the data-plane TCB, so the tables are
    derived rather than embedded and there is no inverse cipher. *)

type key
(** Expanded 128-bit key schedule (11 round keys). *)

val expand_key : bytes -> key
(** [expand_key raw] expands a 16-byte key.  Raises [Invalid_argument] if
    [raw] is not 16 bytes long. *)

val encrypt_block : key -> bytes -> int -> bytes -> int -> unit
(** [encrypt_block k src soff dst doff] encrypts the 16-byte block at
    [src+soff] into [dst+doff].  [src] and [dst] may be the same buffer. *)

val xor_encrypt : key -> int -> int -> int -> int -> bytes -> int -> unit
(** [xor_encrypt k w0 w1 w2 w3 buf off] XORs the encryption of the block
    whose big-endian 32-bit words are [w0..w3] into the 16 bytes of [buf]
    at [off]: a CTR keystream block goes straight into the data, with no
    keystream buffer. *)
