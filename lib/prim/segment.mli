(** Segment trusted primitive: split a batch by event-time window.

    The Windowing operator is compiled to Segment: each input record is
    routed to the output uArray of every window its timestamp falls in.
    Outputs are pre-sized by a counting pass, keeping uArray capacities
    exact.

    Both passes share one scan over maximal runs of consecutive records
    whose timestamps have the same window range.  A run ends only when a
    timestamp leaves the interval of timestamps with that range, so the
    scan divides once per run, not once per record.  The counting pass
    updates its table once per run and window; the routing pass reserves
    once per run and window and copies the run in one blit.  Streams are
    near-time-ordered, so a batch is a handful of runs. *)

val windows_of : ts:int -> size:int -> slide:int -> int * int
(** Sliding windows: the inclusive [lo, hi] range of window indices
    containing [ts], where window [w] covers
    [\[w*slide, w*slide + size)].  [slide = size] degenerates to the
    fixed-window case with [lo = hi].  Negative timestamps: [ts] in
    [(-slide, 0)] lands in window 0 alone, and [ts <= -slide] in no
    window ([lo > hi]). *)

val count_per_window :
  src:Sbt_umem.Uarray.t -> ts_field:int -> window_size:int -> ?slide:int -> unit -> (int * int) list
(** [(window_index, record_count)] for every non-empty window in [src],
    ascending by window index.  With [slide < window_size] a record
    counts toward every window containing it. *)

val segment :
  src:Sbt_umem.Uarray.t ->
  ts_field:int ->
  window_size:int ->
  ?slide:int ->
  dst_for_window:(int -> Sbt_umem.Uarray.t) ->
  unit ->
  unit
(** Route each record of [src] to [dst_for_window w] for every window [w]
    containing it, keeping input order within each destination.  The
    callback is invoked once per distinct window (memoized here), in
    order of first use.  Destinations must be distinct and open, with
    sufficient capacity, else {!Sbt_umem.Uarray.Full} is raised (possibly
    before the overflowing run's records are written). *)
