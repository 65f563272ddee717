(** Comparison sorts for the §9.3 sort ablation, outside the TCB.

    The data plane sorts only with {!Sbt_prim.Sort}'s radix sort, the
    model of the paper's NEON sort.  These are the two points it is
    measured against:

    - {!Std}: quicksort with the key comparison and the record swap
      inlined at the call site (the [std::sort] template-instantiation
      model).
    - {!Qsort}: the same quicksort calling a comparator closure that
      compares through the generic path, reproducing C [qsort]'s
      function-pointer indirection.

    Both sort whole records by one field, ascending in signed 32-bit
    order, and neither is stable. *)

type algorithm = Std | Qsort

val sort :
  algorithm -> src:Sbt_umem.Uarray.t -> dst:Sbt_umem.Uarray.t -> key_field:int -> unit
(** Copy [src]'s records into [dst] ordered by [key_field], as
    {!Sbt_prim.Sort.sort} does. *)

val sort_in_place : algorithm -> Sbt_umem.Uarray.t -> key_field:int -> unit
(** Sort an {e open} uArray's records in place. *)
