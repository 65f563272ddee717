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
