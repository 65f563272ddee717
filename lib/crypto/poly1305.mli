(** Poly1305's polynomial hash (RFC 8439 §2.5), the hash behind
    {!Aead}'s tag.

    A message is read as 16-byte little-endian blocks, each with a 1 bit
    above its top byte, and evaluated as a polynomial at the clamped
    point [r] modulo 2^130 − 5.  There is no one-time [s] here: {!Aead}
    fixes [r] per key and enciphers the hash, so no (key, nonce) pair
    needs to be fresh. *)

type key
(** A clamped evaluation point [r]. *)

val key : bytes -> int -> key
(** [key b off] clamps the 16 bytes of [b] at [off]. *)

type state

val init : key -> state

val pad16 : state -> bytes -> int -> int -> unit
(** [pad16 st buf off len] absorbs [len] bytes of [buf] from [off],
    zero-padded to whole blocks (RFC 8439 §2.8's [pad16]). *)

val finish : state -> bytes
(** The 16-byte value h mod 2^128, h fully reduced (the RFC's tag with
    [s] = 0). *)
