(** Sort trusted primitive (paper §5, §9.3).

    Sort dominates stream-analytics execution in StreamBox-TZ (GroupBy and
    friends are built on sort-merge), so the paper hand-vectorizes it with
    ARMv8 NEON and reports it beating libc [qsort] by ~7x and C++
    [std::sort] by ~2x.  This is the model of the vectorized sort: an LSD
    radix sort, branch-free sequential passes with data-parallel inner
    loops and no comparisons.  The two comparison sorts it is measured
    against are baselines outside the TCB
    ({!Sbt_baselines.Comparison_sort}).

    One pass counts all four byte digits; a digit on which every key
    agrees gets no pass, since a stable pass over it is the identity.
    Keys below 65,536 thus cost two scatter passes.  The passes alternate
    between the destination and one scratch buffer, ordered so that the
    last pass writes the destination, so rows are neither copied in first
    nor copied back after.  Only an in-place sort with an odd pass count
    moves its rows to scratch first.  The scatter moves a record of width
    3 or 4 (the widths the benchmarks sort) with one load and one store
    per field, unrolled by hand; other widths copy field by field.

    Records are sorted whole by one field, ascending in signed 32-bit
    order, and stably: the data plane relies on that, since a Sort
    invoked with a value field (the secondary order) sorts by value and
    then by key. *)

val sort : src:Sbt_umem.Uarray.t -> dst:Sbt_umem.Uarray.t -> key_field:int -> unit
(** Copy [src]'s records into [dst] ordered by [key_field].  [dst] must be
    open, same width as [src], with capacity for [length src] more
    records. *)

val sort_in_place : Sbt_umem.Uarray.t -> key_field:int -> unit
(** Sort an {e open} uArray's records in place (used on temporary
    uArrays inside other primitives). *)
