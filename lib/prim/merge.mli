(** Merge trusted primitive: combine key-sorted uArrays.

    GroupBy and Join in StreamBox-TZ are sort-merge based, so Merge is —
    with Sort — one of the two primitives the paper identifies as
    dominating execution (§5).  Both merges write each record once,
    straight into the destination. *)

val merge2 :
  a:Sbt_umem.Uarray.t ->
  b:Sbt_umem.Uarray.t ->
  dst:Sbt_umem.Uarray.t ->
  key_field:int ->
  unit
(** Merge two uArrays sorted by [key_field] into [dst] (open, same width,
    capacity for [length a + length b] more records).  Stable: ties take
    [a]'s records first.  [key_field] must be a field of the inputs. *)

val max_inputs : int
(** 2^20: the most inputs {!kway} takes. *)

val kway :
  inputs:Sbt_umem.Uarray.t list ->
  dst:Sbt_umem.Uarray.t ->
  key_field:int ->
  unit
(** Merge up to {!max_inputs} uArrays sorted by [key_field] into [dst]
    (open, the inputs' width, capacity for their total length) in one
    pass over a binary heap of the inputs' heads.  The root input's
    records are copied while they sort before the runner-up, the smaller
    child; its new head then sifts down once, and the last input left is
    copied in one blit.  Stable: ties take the earlier input's records
    first, so the output is the stable sort of the inputs'
    concatenation.  [key_field] must be a field of the inputs.
    Raises [Invalid_argument] on too many inputs or a width mismatch,
    and {!Sbt_umem.Uarray.Full}, before writing, if [dst] is too
    small. *)
