(** Relocating growable buffer — the C++ [std::vector] model.

    The baseline uArray is compared against in Figure 11: it grows
    transparently but by doubling into a freshly allocated region and
    copying, where a uArray grows in place.  Page accounting mirrors
    uArray's so the two are also comparable on memory.  Only the bench and
    tests use it; it is not part of the trusted data plane. *)

type t

val create : pool:Sbt_umem.Page_pool.t -> width:int -> unit -> t
(** Starts with a small capacity (16 records), like a freshly constructed
    vector. *)

val length : t -> int
val capacity : t -> int
val relocations : t -> int
(** How many times the buffer has been reallocated and copied. *)

val append_fields3 : t -> int32 -> int32 -> int32 -> unit
val append : t -> int32 array -> unit
val get_field : t -> int -> int -> int32
val raw : t -> Sbt_umem.Uarray.buf
val reserve : t -> int -> int
(** Grow by [n] uninitialized records (relocating as needed); returns the
    first new index. *)

val set_field : t -> int -> int -> int32 -> unit
val free : t -> unit
(** Release all committed pages back to the pool. *)
