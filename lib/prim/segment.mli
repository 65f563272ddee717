(** Segment trusted primitive: split a batch by event-time window.

    The Windowing operator is compiled to Segment: each input record is
    routed to the output uArray of every window its timestamp falls in.
    Outputs are pre-sized by a counting pass, keeping uArray capacities
    exact.

    Both passes share one scan over maximal runs of consecutive records
    whose timestamps have the same window range.  A run ends only when a
    timestamp leaves the interval of timestamps with that range, so the
    scan divides once per run, not once per record.  The counting pass
    sweeps the ends of the runs' window ranges in order, so its work and
    memory follow the windows the batch covers; the routing pass
    reserves once per run and window and copies the run in one append.
    Streams are near-time-ordered, so a batch is a handful of runs. *)

val windows_of : ts:int -> size:int -> slide:int -> int * int
(** Sliding windows: the inclusive [lo, hi] range of window indices
    containing [ts], where window [w] covers
    [\[w*slide, w*slide + size)].  [slide = size] degenerates to the
    fixed-window case with [lo = hi].  Negative timestamps: [ts] in
    [(-slide, 0)] lands in window 0 alone, and [ts <= -slide] in no
    window ([lo > hi]). *)

val split :
  src:Sbt_umem.Uarray.t -> ts_field:int -> window_size:int -> ?slide:int ->
  alloc:(i:int -> win:int -> count:int -> Sbt_umem.Uarray.t) -> unit -> (int * Sbt_umem.Uarray.t) list
(** Count, then route, over one scan.  [alloc ~i ~win ~count] makes the
    destination of the [i]th non-empty window in ascending order, for
    the [count] records of [src] that window holds (with [slide <
    window_size] a record counts toward every window containing it).
    Each record of [src] is then appended to the destination of every
    window containing it, keeping input order within each destination.
    Returns the (window, destination) pairs in ascending window order.
    Destinations must be distinct and open, with at least [count] free
    records, else {!Sbt_umem.Uarray.Full} is raised (possibly before
    the overflowing run's records are written); [Invalid_argument] if a
    destination's width differs from [src]'s. *)
