(** Secure physical-page pool.

    Models the TEE's share of DRAM (carved out by the TZASC).  uArrays
    commit pages here as they grow and release them when their uGroup
    reclaims them.  The pool is the source of truth for the "TEE memory
    usage" columns of Figure 7 and the hint ablation of Figure 10, and it
    is what runs out when ingestion outpaces compute — triggering the
    engine's backpressure (paper §4.2). *)

type t

exception Out_of_secure_memory of { requested_pages : int; available_pages : int }

val page_size : int
(** 4096 bytes. *)

val create : budget_bytes:int -> t
val commit : t -> pages:int -> unit
(** Raises {!Out_of_secure_memory} when the budget would be exceeded. *)

val release : t -> pages:int -> unit
(** Raises [Invalid_argument] if releasing more than is committed. *)

val committed_pages : t -> int
val committed_bytes : t -> int
val budget_bytes : t -> int
val high_water_bytes : t -> int
(** Peak committed bytes since creation (or the last {!reset_high_water}). *)

val reset_high_water : t -> unit
val available_pages : t -> int
val pages_for_bytes : int -> int
(** ceil(bytes / page_size). *)

(** {2 Per-domain shards}

    Domain-local views of the pool for the real-parallel executor
    ({!Sbt_exec.Executor}): each domain owns one shard and commits
    scratch pages against lock-free shard-local counters, drawing page
    quota from the parent in adaptive chunks under the parent's lock —
    the chunk starts at [refill_pages], doubles on every dry run (capped
    at 8x), and decays back at {!merge_shard}.  Quota held by a shard
    counts as committed in the parent, so parent accounting (Figures
    7/10) remains a conservative bound — at most twice the current chunk
    of slack per shard, all returned at every {!merge_shard} (window
    close).  Shard counters are unlocked: only the owning domain may
    touch a given shard. *)

type shard

val shards : ?refill_pages:int -> t -> n:int -> shard array
(** [refill_pages] (the base refill chunk) defaults to 16. *)

val shard_commit : shard -> pages:int -> unit
(** Raises {!Out_of_secure_memory} when the parent budget cannot cover
    the refill — shard pressure is parent pressure. *)

val shard_release : shard -> pages:int -> unit
val merge_shard : shard -> unit
(** Return all unused quota to the parent (call at window close). *)

val shard_committed_bytes : shard -> int
val shard_high_water_bytes : shard -> int

val shard_refill_pages : shard -> int
(** The current (adaptive) refill chunk, in pages. *)

val shard_refills : shard -> int
(** Dry runs so far: parent-lock trips that granted new quota. *)

val shard_drains : shard -> int
(** Slack-return trips to the parent ({!shard_release} cap overflows and
    non-empty {!merge_shard} calls). *)
