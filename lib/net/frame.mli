(** Source-to-edge wire frames.

    The Generator packs event batches into frames (little-endian 32-bit
    fields, one record after another) and interleaves watermark frames,
    mirroring the paper's ZeroMQ transport.  On untrusted source-edge
    links the payload is AES-128-CTR encrypted with a per-stream nonce
    and sequence-derived positions, so frames can be decrypted
    independently and out of order, and tagged with the
    {!Sbt_crypto.Aead} tag, so the TEE can refuse a frame whose bytes or
    header were changed. *)

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
          (** the 16-byte {!Sbt_crypto.Aead} tag over the domain byte 'F',
              (stream, seq, events, encrypted) and the payload as carried
              on the wire; every encrypted frame carries one, and a clear
              frame carries [Bytes.empty] unless its source seals it *)
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

val encrypt_payload : key:Sbt_crypto.Aead.key -> stream_nonce:int64 -> t -> t
(** Encrypt an [Events] payload in a fresh copy (CTR position [seq * 2^32])
    and {!seal} it: no encrypted byte leaves without a tag.  Identity on
    watermarks and on frames already marked [encrypted]. *)

val decrypt_payload : key:Sbt_crypto.Aead.key -> stream_nonce:int64 -> t -> t
(** Decrypt an encrypted payload in a fresh copy and drop its tag, which
    covered the ciphertext.  It does not verify the tag. *)

val seal : key:Sbt_crypto.Aead.key -> t -> t
(** Attach the tag over the frame header and the payload as it stands.
    {!encrypt_payload} seals already; this tags a clear frame.  Identity
    on watermarks. *)

val sealed : t -> bool
(** Whether an [Events] frame carries a tag ([false] for watermarks). *)

val mac_valid : key:Sbt_crypto.Aead.key -> t -> bool
(** Verify a frame's tag; [false] for untagged [Events] frames, [true] for
    watermarks (they carry no payload to protect). *)

val mac_payload :
  key:Sbt_crypto.Aead.key -> stream:int -> seq:int -> events:int -> encrypted:bool -> bytes -> bytes
(** The tag {!seal} attaches, for callers holding the fields unbundled. *)

val payload_mac_valid :
  key:Sbt_crypto.Aead.key ->
  stream:int ->
  seq:int ->
  events:int ->
  encrypted:bool ->
  mac:bytes ->
  bytes ->
  bool
(** {!mac_valid} for callers holding the fields unbundled (the data
    plane receives payloads, not frames). *)
