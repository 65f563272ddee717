(** The in-TEE audit log and its flush policy.

    The data plane appends a record per boundary event; the log compresses
    pending records and signs the batch (HMAC-SHA-256 under the
    edge/cloud key) when flushed.  Flushes happen periodically and upon
    every result externalization (paper §7). *)

type t

type batch = { payload : bytes; tag : bytes; seq : int }
(** A signed upload unit: columnar-compressed records plus its MAC.  [seq]
    increments per flush so the verifier can detect dropped batches. *)

val create : key:bytes -> flush_every:int -> t
(** Flush automatically once [flush_every] records are pending (a
    size-based stand-in for the paper's periodic flush). *)

val append : t -> Record.t -> batch option
(** Returns a batch when the append triggered an automatic flush. *)

val flush : t -> batch option
(** Force a flush; [None] when nothing is pending. *)

val open_batch : key:bytes -> batch -> Record.t list
(** Verify the MAC and decompress — the cloud side.  Raises
    [Invalid_argument] on a bad tag (tampered or forged batch). *)

val records_produced : t -> int

val seq : t -> int
(** The next batch sequence number (= batches flushed so far). *)

val restore_cursor : t -> seq:int -> records_produced:int -> unit
(** Restore the log's cursor from a sealed checkpoint, so a recovered
    data plane continues the batch sequence exactly where the
    checkpointed one left off.  Only legal on a log with no pending
    records (checkpoints are taken right after a flush). *)
