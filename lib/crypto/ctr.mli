(** AES-128 in counter (CTR) mode.

    CTR turns the block cipher into a stream cipher, so encryption and
    decryption are the same operation and arbitrary lengths are supported
    without padding — the right fit for streaming batches of fixed-size
    events. *)

type t
(** A CTR stream keyed with an AES key and a 8-byte nonce. *)

val create : key:bytes -> nonce:int64 -> t
(** [create ~key ~nonce] builds a stream.  [key] must be 16 bytes.
    The counter block is [nonce || block_index]. *)

val of_key : Aes.key -> nonce:int64 -> t
(** A stream over an already expanded key: no key schedule per stream. *)

val xcrypt : t -> pos:int64 -> bytes -> int -> int -> unit
(** [xcrypt t ~pos buf off len] en/decrypts [len] bytes of [buf] in place,
    treating [pos] as the absolute byte offset within the stream (so
    batches can be processed independently and out of order).  Byte
    [pos] of the stream lies in counter block [pos asr 4].  Raises
    [Invalid_argument] if the range is outside [buf]. *)

val xcrypt_bytes : key:bytes -> nonce:int64 -> bytes -> bytes
(** One-shot convenience: fresh stream, position 0, returns a copy. *)
