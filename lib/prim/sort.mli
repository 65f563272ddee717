(** Sort trusted primitive — three implementations (paper §5, §9.3).

    Sort dominates stream-analytics execution in StreamBox-TZ (GroupBy and
    friends are built on sort-merge), so the paper hand-vectorizes it with
    ARMv8 NEON and reports it beating libc [qsort] by ~7x and C++
    [std::sort] by ~2x.  We reproduce the three design points:

    - {!Radix}: LSD radix sort, branch-free sequential passes — the model
      of the vectorized implementation (data-parallel inner loops, no
      comparisons).  One pass counts all four byte digits; a digit on
      which every key agrees gets no pass, since a stable pass over it
      is the identity.  Keys below 65,536 thus cost two scatter passes.
      The passes alternate between the destination and one scratch
      buffer, ordered so that the last pass writes the destination, so
      rows are neither copied in first nor copied back after.  Only an
      in-place sort with an odd pass count moves its rows to scratch
      first.  The scatter moves a record of width 3 or 4 (the widths the
      benchmarks sort) with one load and one store per field, unrolled by
      hand; other widths copy field by field.
    - {!Std}: comparison sort with the comparator inlined at the call site
      (the [std::sort] template-instantiation model).
    - {!Qsort}: the same comparison sort but calling the comparator through
      a closure, reproducing C [qsort]'s function-pointer indirection.

    All three sort whole records by one field, ascending in signed 32-bit
    order.  Only {!Radix} is stable, and the data plane relies on that:
    a Sort invoked with a value field (the secondary order) sorts by
    value and then by key, both with {!Radix}, whatever sort the data
    plane is configured with. *)

type algorithm = Radix | Std | Qsort

val sort :
  algorithm -> src:Sbt_umem.Uarray.t -> dst:Sbt_umem.Uarray.t -> key_field:int -> unit
(** Copy [src]'s records into [dst] ordered by [key_field].  [dst] must be
    open, same width as [src], with capacity for [length src] more
    records. *)

val sort_in_place : algorithm -> Sbt_umem.Uarray.t -> key_field:int -> unit
(** Sort an {e open} uArray's records in place (used on temporary
    uArrays inside other primitives). *)
