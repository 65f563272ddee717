(** Sealing of checkpoint blobs with a device-derived key.

    A checkpoint leaves the TEE only as ciphertext: AES-128-CTR under a
    key derived from the device master secret, authenticated (header
    included) by HMAC-SHA-256 under a second derived key.  The
    checkpoint sequence number is bound under the MAC and is also the
    CTR nonce, so sealing is deterministic per sequence number and no
    two checkpoints share a keystream.

    Unsealing enforces two properties the recovery path depends on:
    integrity (any bit flip anywhere in the blob raises {!Tamper}) and
    freshness (a blob whose authenticated sequence number is below the
    caller's expectation raises {!Rollback} — the caller derives the
    expectation from the audit log, which the normal world cannot forge). *)

exception Tamper
(** The blob failed authentication (or is structurally invalid). *)

exception Rollback of { got : int; expected : int }
(** The blob is authentic but stale: its sequence number [got] is below
    the [expected] lower bound. *)

val seal : device_key:bytes -> seq:int -> bytes -> bytes
(** [seal ~device_key ~seq plaintext] is the sealed blob ("SBTC1"). *)

val unseal : device_key:bytes -> ?expect_at_least:int -> bytes -> int * bytes
(** [unseal ~device_key ~expect_at_least blob] is [(seq, plaintext)].
    Raises {!Tamper} or {!Rollback}. *)

