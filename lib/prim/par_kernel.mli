(** Data-parallel execution paths for the hot trusted primitives.

    The paper's engine (§5, §9) runs sort/merge/aggregate data-parallel on
    the big cores inside the TEE.  This module is the chunking substrate
    and the parallel kernel variants: contiguous record-range splits over
    {!Sbt_umem.Uarray.raw} buffers, per-chunk scratch accounted in
    {!Sbt_umem.Page_pool} pages, and deterministic stitching so every
    parallel variant produces output {e byte-identical} to its serial
    counterpart (see DESIGN.md §9 for the determinism argument).

    Work is expressed as {!chunk} arrays handed to a {!runner}.  Runners
    only choose {e where} chunks execute, never output bytes: the chunks
    of one [run_chunks] call write disjoint ranges, so any execution order
    (or interleaving) yields the same result. *)

type chunk = {
  scratch_bytes : int;
      (** Modeled secure-memory scratch footprint of this chunk, in
          bytes.  The executor commits it, rounded up to whole
          {!Sbt_umem.Page_pool} pages, on the executing domain's pool
          shard. *)
  run : unit -> unit;
}

type runner = {
  width : int;  (** Parallelism hint used to pick the default chunk count. *)
  run_chunks : chunk array -> unit;
      (** Execute every chunk and return only once all have completed,
          with a synchronizing barrier (join or atomic handshake) so chunk
          writes are visible to the caller.  Chunks of one call are
          mutually independent; calls must not overlap. *)
}

val serial : runner
(** Runs chunks in order on the calling domain. *)

val domains : n:int -> runner
(** Self-contained runner: [n - 1] freshly spawned helper domains plus the
    caller claim chunks from a shared atomic counter.  Used by benches and
    tests; the [Domains] engine instead supplies a runner backed by its
    resident worker domains (see {!Sbt_exec.Executor}). *)

type slice = { buf : Sbt_umem.Uarray.buf; off : int; len : int }
(** [len] records of width [w] starting at record offset [off] in a raw
    buffer. *)

val slice_of_uarray : Sbt_umem.Uarray.t -> slice

val ranges : n:int -> pieces:int -> (int * int) array
(** [(start, len)] record ranges splitting [n] records into [pieces]
    contiguous pieces ([pieces >= 1]; pieces may be empty when
    [n < pieces]). *)

(** {1 Raw kernels}

    Operate on raw buffers; inputs and outputs must not overlap (except
    [sort_raw] with [src] identical to the destination range, which sorts
    in place).  [?pieces] overrides the chunk count chosen from
    [runner.width] — with [runner = serial] the chunked path still runs,
    just on one domain, which the equivalence tests use.  Kernels taking
    [~alloc] call it exactly once (serially, on the calling domain) with
    the output record count and write from the returned (buffer, record
    offset). *)

val sort_raw :
  ?runner:runner ->
  ?pieces:int ->
  w:int ->
  key_field:int ->
  src:slice ->
  dst_buf:Sbt_umem.Uarray.buf ->
  dst_off:int ->
  unit ->
  unit
(** Stable parallel radix sort: per-piece stable LSD radix runs, then a
    stable k-way merge with lowest-run-index tie-break.  Byte-identical to
    {!Sort.sort} with {!Sort.Radix}. *)

val merge_raw :
  ?runner:runner ->
  ?pieces:int ->
  w:int ->
  key_field:int ->
  runs:slice array ->
  dst_buf:Sbt_umem.Uarray.buf ->
  dst_off:int ->
  unit ->
  unit
(** Stable k-way merge of key-sorted runs; output pieces are cut by
    co-rank selection and merged independently.  Equal keys are emitted in
    run-index order — the order {!Merge.kway}'s tournament of
    left-preferring binary merges produces. *)

val segment_counts :
  ?runner:runner ->
  ?pieces:int ->
  w:int ->
  ts_field:int ->
  window_size:int ->
  ?slide:int ->
  src:slice ->
  unit ->
  (int * int) list
(** Per-piece partial window->count hash tables merged into the same
    ascending [(window, count)] list {!Segment.count_per_window}
    returns. *)

val segment_raw :
  ?runner:runner ->
  ?pieces:int ->
  w:int ->
  ts_field:int ->
  window_size:int ->
  ?slide:int ->
  src:slice ->
  alloc:(int -> int -> Sbt_umem.Uarray.buf * int) ->
  unit ->
  unit
(** Parallel window routing.  [alloc win count] is called serially per
    non-empty window in ascending order; the scatter then writes each
    window's records in source order. *)

type agg = Agg_sum | Agg_count | Agg_avg

val per_key_raw :
  ?runner:runner ->
  ?pieces:int ->
  w:int ->
  key_field:int ->
  value_field:int ->
  agg:agg ->
  src:slice ->
  alloc:(int -> Sbt_umem.Uarray.buf * int) ->
  unit ->
  unit
(** Per-key aggregation over key-sorted input into (key, value) records of
    width 2.  Piece boundaries are aligned to equal-key runs, so groups
    never straddle pieces and pieces emit groups in canonical key order;
    the arithmetic mirrors {!Keyed} exactly. *)

val filter_band_raw :
  ?runner:runner ->
  ?pieces:int ->
  w:int ->
  field:int ->
  lo:int32 ->
  hi:int32 ->
  src:slice ->
  alloc:(int -> Sbt_umem.Uarray.buf * int) ->
  unit ->
  unit
(** Order-preserving chunked band filter: per-piece match counts, serial
    prefix sum, parallel scatter at stable offsets. *)

val fused_raw :
  ?runner:runner ->
  ?pieces:int ->
  w:int ->
  steps:Fused.step list ->
  src:slice ->
  alloc:(int -> Sbt_umem.Uarray.buf * int) ->
  unit ->
  unit
(** Single-pass fused chain (PR 7): every record runs the whole
    {!Fused.step} list on a per-chunk scratch row, dropped at the first
    failing filter/select; survivors are scattered at stable offsets via
    the same count -> prefix -> scatter shape as {!filter_band_raw}, so
    the output is byte-identical to applying the unfused primitives in
    sequence.  Raises [Invalid_argument] if the chain is invalid for the
    input width ({!Fused.width_after}). *)

val project_raw :
  ?runner:runner ->
  ?pieces:int ->
  w:int ->
  fields:int array ->
  src:slice ->
  dst_buf:Sbt_umem.Uarray.buf ->
  dst_off:int ->
  unit ->
  unit

val concat_raw :
  ?runner:runner ->
  w:int ->
  inputs:slice array ->
  dst_buf:Sbt_umem.Uarray.buf ->
  dst_off:int ->
  unit ->
  unit
(** One blit chunk per input at precomputed offsets — input order is
    preserved. *)

(** {1 uArray wrappers}

    Same contracts as the serial primitives they shadow ({!Sort.sort}
    Radix, {!Merge.kway}, {!Segment}, {!Keyed}, {!Filter}, {!Misc}); each
    produces byte-identical destination contents. *)

val sort :
  ?runner:runner ->
  ?pieces:int ->
  src:Sbt_umem.Uarray.t ->
  dst:Sbt_umem.Uarray.t ->
  key_field:int ->
  unit ->
  unit

val sort_in_place :
  ?runner:runner -> ?pieces:int -> Sbt_umem.Uarray.t -> key_field:int -> unit

val kway :
  ?runner:runner ->
  ?pieces:int ->
  inputs:Sbt_umem.Uarray.t list ->
  dst:Sbt_umem.Uarray.t ->
  key_field:int ->
  unit ->
  unit

val count_per_window :
  ?runner:runner ->
  ?pieces:int ->
  src:Sbt_umem.Uarray.t ->
  ts_field:int ->
  window_size:int ->
  ?slide:int ->
  unit ->
  (int * int) list

val segment :
  ?runner:runner ->
  ?pieces:int ->
  src:Sbt_umem.Uarray.t ->
  ts_field:int ->
  window_size:int ->
  ?slide:int ->
  dst_for_window:(int -> Sbt_umem.Uarray.t) ->
  unit ->
  unit

val sum_per_key :
  ?runner:runner ->
  ?pieces:int ->
  src:Sbt_umem.Uarray.t ->
  dst:Sbt_umem.Uarray.t ->
  key_field:int ->
  value_field:int ->
  unit ->
  unit

val count_per_key :
  ?runner:runner ->
  ?pieces:int ->
  src:Sbt_umem.Uarray.t ->
  dst:Sbt_umem.Uarray.t ->
  key_field:int ->
  unit ->
  unit

val avg_per_key :
  ?runner:runner ->
  ?pieces:int ->
  src:Sbt_umem.Uarray.t ->
  dst:Sbt_umem.Uarray.t ->
  key_field:int ->
  value_field:int ->
  unit ->
  unit

val filter_band :
  ?runner:runner ->
  ?pieces:int ->
  src:Sbt_umem.Uarray.t ->
  dst:Sbt_umem.Uarray.t ->
  field:int ->
  lo:int32 ->
  hi:int32 ->
  unit ->
  unit

val select_eq :
  ?runner:runner ->
  ?pieces:int ->
  src:Sbt_umem.Uarray.t ->
  dst:Sbt_umem.Uarray.t ->
  field:int ->
  value:int32 ->
  unit ->
  unit

val project :
  ?runner:runner ->
  ?pieces:int ->
  src:Sbt_umem.Uarray.t ->
  dst:Sbt_umem.Uarray.t ->
  fields:int array ->
  unit ->
  unit

val fused :
  ?runner:runner ->
  ?pieces:int ->
  src:Sbt_umem.Uarray.t ->
  dst:Sbt_umem.Uarray.t ->
  steps:Fused.step list ->
  unit ->
  unit
(** uArray wrapper over {!fused_raw}; [dst] must have the chain's final
    width ({!Fused.width_after}). *)

val concat :
  ?runner:runner -> inputs:Sbt_umem.Uarray.t list -> dst:Sbt_umem.Uarray.t -> unit -> unit
