(** AES-128-CTR with a Poly1305 tag: the record path's one AEAD.

    The cipher is {!Ctr} under the configured key, so cipher bytes are
    those of plain CTR.  The tag is AES{_kt}(Poly1305{_r}(MAC data) mod
    2^128), where the MAC data is RFC 8439 §2.8's layout: associated
    data, zero pad, cipher bytes, zero pad, then both lengths as 64-bit
    little-endian words.  [r] and [kt] are derived from the key with
    {!Kdf} in {!of_key}, once per key and never from the nonce, so a
    repeated (key, nonce) pair weakens nothing but the keystream: this is
    the hash-then-encipher tag of AES-GCM-SIV (RFC 8452), not RFC 8439's
    one-time key. *)

type key
(** The expanded CTR key and the derived tag keys. *)

val of_key : bytes -> key
(** [of_key raw] for a 16-byte AES key. *)

val ad : char -> int list -> bytes
(** [ad domain fields]: associated data, a domain byte then each field as
    a 64-bit little-endian word. *)

val tag : key -> ad:bytes -> bytes -> int -> int -> bytes
(** [tag k ~ad buf off len] is the 16-byte tag of [len] bytes of [buf]
    from [off] under [ad]. *)

val verify : key -> ad:bytes -> tag:bytes -> bytes -> int -> int -> bool
(** Constant-time check of a 16-byte tag; [false] for any other length. *)

val xcrypt : key -> nonce:int64 -> pos:int64 -> bytes -> int -> int -> unit
(** {!Ctr.xcrypt} under the key's cipher half. *)

val seal : key -> nonce:int64 -> pos:int64 -> ad:bytes -> bytes -> int -> int -> bytes
(** Encrypt the range in place, then return its tag (encrypt-then-MAC). *)
