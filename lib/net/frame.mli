(** Source-to-edge wire frames.

    The Generator packs event batches into frames (little-endian 32-bit
    fields, one record after another) and interleaves watermark frames,
    mirroring the paper's ZeroMQ transport.  On untrusted source-edge
    links the payload is AES-128-CTR encrypted with a per-stream nonce
    and sequence-derived positions, so frames can be decrypted
    independently and out of order. *)

type t =
  | Events of {
      seq : int;  (** frame sequence within the stream *)
      stream : int;  (** source stream id (Join uses two) *)
      events : int;
      windows : int list;
          (** distinct window indices the batch spans — source-side
              manifest metadata (derivable from the data; carried in the
              clear like lengths and sequence numbers) *)
      payload : bytes;
      encrypted : bool;
      mac : bytes;
          (** HMAC-SHA256 over header (stream, seq, events) + wire
              payload; [Bytes.empty] on unauthenticated links (the
              pre-fault-model default) *)
    }
  | Watermark of { seq : int; value : int }

val pack_events : width:int -> int32 array array -> bytes
(** Pack records (each an array of [width] fields) into a payload. *)

val unpack_events : width:int -> bytes -> int32 array array
(** Test helper; the data plane unpacks straight into uArrays instead. *)

val payload_bytes : t -> int

val watermark : ?last:int -> seq:int -> value:int -> unit -> t
(** Checked watermark constructor: raises [Invalid_argument] when [value]
    regresses below [last] (the stream's previously emitted watermark).
    A watermark is a promise that no earlier event time is still in
    flight; regressing would retroactively legitimize data already
    classified as late, so a regression is rejected at construction. *)

val encrypt_payload : key:bytes -> stream_nonce:int64 -> t -> t
(** En/decrypt an [Events] payload in a fresh copy (CTR position =
    [seq * 2^32]); identity on watermarks and on already-(un)encrypted
    frames as indicated by the [encrypted] flag. *)

val decrypt_payload : key:bytes -> stream_nonce:int64 -> t -> t

val seal : key:bytes -> t -> t
(** Attach an HMAC-SHA256 tag binding the frame header (stream, seq,
    events) and the payload as carried on the wire.  Seal {e after}
    {!encrypt_payload} (encrypt-then-MAC).  Identity on watermarks. *)

val sealed : t -> bool
(** Whether an [Events] frame carries a tag ([false] for watermarks). *)

val mac_valid : key:bytes -> t -> bool
(** Verify a sealed frame's tag; [false] for unsealed [Events] frames,
    [true] for watermarks (they carry no payload to protect). *)

val mac_payload : key:bytes -> stream:int -> seq:int -> events:int -> bytes -> bytes
(** The tag {!seal} attaches, for callers holding the fields unbundled
    (the data plane receives payloads, not frames). *)

val payload_mac_valid :
  key:bytes -> stream:int -> seq:int -> events:int -> mac:bytes -> bytes -> bool
