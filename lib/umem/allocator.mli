(** The specialized TEE memory allocator (paper §6).

    Places uArrays into uGroups guided by the control plane's (untrusted)
    consumption hints:

    - {b Consumed-after} [b1 <= b2]: the new uArray [b2] will be consumed
      after the existing [b1].  The allocator walks [b2]'s consumed-after
      chain backwards and appends [b2] to the uGroup of the first
      predecessor that is (a) produced and (b) at the end of its group;
      otherwise it opens a fresh group.
    - {b Consumed-in-parallel} [(||k)]: the k new uArrays will be consumed
      by independent workers; each goes into its own uGroup so a straggler
      cannot pin the others' memory.

    Hints are advisory: a misleading hint can only waste memory (slowing
    reclamation), never corrupt data — which tests assert.

    The [`Producer_grouping] mode implements the ablation of Figure 10:
    ignore hints and co-locate uArrays produced by the same primitive
    instance, on the heuristic that one generation is reclaimed together. *)

type mode =
  | Hint_guided
  | Producer_grouping

type hint =
  | No_hint
  | Consumed_after of Uarray.t
  | Consumed_in_parallel
      (** the array is one of a [(||k)] set: always isolate it. *)

type t

val create : ?mode:mode -> pool:Page_pool.t -> unit -> t
(** Each uGroup gets one virtual range the size of the pool budget. *)

val mode : t -> mode

val alloc :
  t ->
  ?hint:hint ->
  ?scope:Uarray.scope ->
  ?producer:int ->
  width:int ->
  capacity:int ->
  unit ->
  Uarray.t
(** Allocate and place a new open uArray.  [producer] identifies the
    producing primitive instance (used by [`Producer_grouping] and by the
    audit log). *)

val retire : t -> Uarray.t -> unit
(** Retire the array, run reclamation on its group, and release the
    group's virtual range if it is exhausted. *)

val produce : t -> Uarray.t -> unit
(** Seal the array and run reclamation on its group (sealing the tail can
    unblock nothing, but keeps group state canonical). *)

val live_groups : t -> int
val live_uarrays : t -> int
val committed_bytes : t -> int
val pinned_bytes : t -> int
(** Total bytes pinned behind stragglers across groups (Figure 10's
    waste metric). *)

val next_uarray_id : t -> int
(** Peek at the next id the allocator will assign (monotonic; ids also key
    audit records). *)

val reserve_id : t -> int
(** Consume and return the next id without allocating a uArray.  The data
    plane assigns watermarks ids from the same sequence, so audit-record
    identifiers stay near-monotonic and delta-compress well. *)

val alloc_restored :
  t -> id:int -> ?scope:Uarray.scope -> width:int -> capacity:int -> unit -> Uarray.t
(** Checkpoint restore: allocate a uArray under its {e original} id (each
    in a fresh group) and advance the id counter past it, so audit
    records emitted after recovery name exactly the ids the uninterrupted
    run would have. *)

val force_next_id : t -> next:int -> unit
(** Pin the id counter to the checkpointed value after restoring live
    arrays.  Refuses to move backwards (ids must never be reused). *)

val set_observer : t -> tracer:Sbt_obs.Tracer.t -> now_ns:(unit -> float) -> unit
(** Emit a ["secure-pool"] counter sample (committed bytes, live
    uArrays/uGroups) on every allocation and every reclamation that
    released arrays, plus a ["ugroup-reclaim"] instant per such
    reclamation.  Timestamps come from [now_ns] (the data plane's
    virtual clock); observation never touches allocator decisions. *)

