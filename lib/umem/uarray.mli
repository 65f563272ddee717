(** uArray: contiguous, virtually unbounded, append-only buffer (paper §6.1).

    A uArray encapsulates same-type records of [width] 32-bit fields in one
    contiguous region.  Its lifecycle follows the producer/consumer pattern
    of streaming computations:

    - {b Open}: the producer appends records; the array grows in place by
      bumping an index (never relocating).  Growth commits secure pages
      on demand.
    - {b Produced}: sealed, read-only.
    - {b Retired}: no longer needed; its pages are reclaimed when its
      uGroup's reclamation front reaches it (see {!Ugroup}).

    The backing store reserves the full capacity up front (the model of the
    TEE's large-virtual-space reservation); the OS commits host pages
    lazily, and the secure page pool is charged as [len] grows. *)

type state = Open | Produced | Retired

type scope = Streaming | State | Temporary
(** Paper §6.1: streaming uArrays flow between primitives, state uArrays
    hold operator state across windows, temporary uArrays live within one
    primitive. *)

type buf = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

type t

exception Full of { id : int; capacity : int }
exception Sealed of { id : int }

val create :
  id:int -> pool:Page_pool.t -> width:int -> capacity:int -> ?scope:scope -> unit -> t
(** [capacity] is in records.  No secure pages are committed until data is
    appended. *)

val id : t -> int
val width : t -> int
val capacity : t -> int
val length : t -> int
(** Records currently stored. *)

val state : t -> state
val scope : t -> scope
val is_open : t -> bool

val append : t -> int32 array -> unit
(** Append one record ([width] fields).  Raises {!Full} when capacity is
    exceeded, {!Sealed} if not open. *)

val append_fields3 : t -> int32 -> int32 -> int32 -> unit
(** Fast path for the common 3-field event (no array allocation). *)

val append_blit : t -> src:t -> src_pos:int -> len:int -> unit
(** Bulk copy [len] records from the produced array [src]. *)

val reserve : t -> int -> int
(** [reserve t n] grows the array by [n] uninitialized records (committing
    pages) and returns the index of the first; the caller then writes via
    {!set_field}.  The in-place growth path used by hot primitives. *)

val get_field : t -> int -> int -> int32
(** [get_field t record field]. Bounds-checked. *)

val set_field : t -> int -> int -> int32 -> unit
(** Only valid while open. *)

val raw : t -> buf
(** The backing bigarray (records are at [record * width + field]).  Hot
    primitives use this directly; they must respect [length] and only
    write below it (after {!reserve}). *)

val produce : t -> unit
(** Seal: Open -> Produced.  Idempotence is not allowed: raises
    [Invalid_argument] unless currently open. *)

val retire : t -> unit
(** Produced -> Retired (an Open array may also be retired on pipeline
    teardown).  Pages remain charged until {!release_pages}. *)

val release_pages : t -> unit
(** Return this array's committed pages to the pool.  Called by the uGroup
    reclamation front only; raises [Invalid_argument] unless retired. *)

val committed_pages : t -> int
val committed_bytes : t -> int
val bytes_len : t -> int
(** Payload bytes ([length * width * 4]). *)

val to_list : t -> int32 array list
(** All records as field arrays — test/debug helper, O(n) allocation. *)
