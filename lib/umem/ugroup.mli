(** uGroup: a set of uArrays co-located in one contiguous virtual range and
    reclaimed strictly from the front (paper §6.2, Figure 5).

    A uGroup holds a sequence of produced or retired uArrays and optionally
    one open uArray at its end.  Reclamation always starts at the
    beginning: a retired uArray's pages are released only once every
    uArray before it has been released.  A straggling (unconsumed) uArray
    therefore pins the memory of every later uArray in the group — the
    cost the allocator's consumption hints exist to avoid. *)

type t

val create : id:int -> vbase:int64 -> t
val id : t -> int
val vbase : t -> int64

val append : t -> Uarray.t -> unit
(** Raises [Invalid_argument] if the current last member is still open
    (only the group's tail may be open — members are laid out
    consecutively, so nothing can be placed after a still-growing
    array). *)

val last : t -> Uarray.t option
(** The member at the group's end (the only legal growth/append point). *)

val member_count : t -> int
val live_member_count : t -> int
(** Members whose pages have not been released yet. *)

val reclaim : t -> int
(** Release pages of the maximal retired prefix; returns how many uArrays
    were released.  Idempotent. *)

val is_exhausted : t -> bool
(** True once every member has been released (and there is at least one
    member): the group's virtual range can be returned to the vspace. *)

val pinned_bytes : t -> int
(** Committed bytes held by members that are retired but cannot be
    released yet because an earlier member is still live — the waste the
    hint ablation (Figure 10) measures. *)
