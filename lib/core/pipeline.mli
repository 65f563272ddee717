(** Declarative pipelines (the Figure 2(c) programming model).

    A pipeline names the event schema, the fixed window, the per-batch
    operator stages and the per-window plan.  The control plane compiles
    it into trusted-primitive invocations; the same declaration doubles as
    the cloud verifier's replay specification.

    Per-batch stages ([batch_ops]) run eagerly on every windowed segment
    as soon as it is produced — this is where GroupBy's Sort happens, in
    parallel across batches.  The window plan runs once per window when
    the closing watermark arrives, over all the window's ready uArrays. *)

type batch_op =
  | B_sort of { key_field : int; secondary_value : int option }
      (** Sort segments by key (GroupBy's first half).  A secondary value
          field requests a stable (value, key) two-pass radix order. *)
  | B_filter_band of { field : int; lo : int32; hi : int32 }
  | B_project of int array
  | B_select of { field : int; value : int32 }
      (** Keep records whose [field] equals [value] exactly. *)
  | B_shift_key of { field : int; shift : int }
      (** Arithmetic right-shift of [field] by [shift] bits (key
          coarsening, e.g. plug id -> house id). *)

(** Context handed to a window plan when its watermark fires. *)
type wctx = {
  window : int;
  ready : (int * int64) list;  (** (stream, opaque ref) of ready arrays *)
  invoke :
    ?params:Dataplane.param list ->
    ?retire:bool ->
    Sbt_prim.Primitive.t ->
    int64 list ->
    int64 list;
      (** Invoke a trusted primitive on opaque refs; returns output refs.
          The window's triggering watermark is attached automatically to
          the first invocation (it appears in that audit record as the
          execution trigger). *)
  invoke_udf :
    ?retire:bool ->
    ?state_output:bool ->
    name:string ->
    version:int ->
    value_field:int ->
    int64 list ->
    int64 list;
      (** Invoke an installed certified UDF; [state_output] allocates the
          result as cross-window operator state. *)
  retire_ref : int64 -> unit;
      (** Explicitly retire a uArray (required for state the plan
          replaces). *)
}

type window_kind = [ `Fixed | `Session of int ]
(** [`Fixed]: the grid of [window_slide_ticks]-spaced windows (sliding
    when slide < size).  [`Session gap]: windows are per-window activity
    sessions — window [w] starts at its first event and closes once the
    watermark clears its last event time plus [gap] ticks of silence. *)

type t = {
  name : string;
  schema : Event.schema;
  window_size_ticks : int;
  window_slide_ticks : int;
      (** window [w] covers [\[w*slide, w*slide + size)]; equal to
          [window_size_ticks] for the paper's fixed windows *)
  window_kind : window_kind;
  streams : int;  (** 1, or 2 for joins *)
  batch_ops : batch_op list;
  window_ops : Sbt_prim.Primitive.t list;
      (** declared per-window primitive multiset — the verifier's copy *)
  window_udf_invocations : int;
      (** certified-UDF executions per window, also part of the declared
          multiset (they audit under {!Sbt_prim.Primitive.udf_id}) *)
  udfs : (Udf.t * bytes) list;
      (** UDFs (with their certificates) installed with the pipeline *)
  plan : wctx -> int64;  (** runs the window phase; returns the result ref *)
}

val batch_op_primitive : batch_op -> Sbt_prim.Primitive.t

val session_gap : t -> int option
(** [Some gap] for session-windowed pipelines, [None] for the fixed grid. *)

val with_session_gap : t -> gap_ticks:int -> t
(** Turn a fixed-window pipeline into a gap-based session pipeline:
    events are assigned to activity sessions in-TEE (a new session opens
    after [gap_ticks] of event-time silence) and a session closes only
    when the watermark clears its end plus the gap.  Requires a pipeline
    with no batch stages (session assignment happens at windowing time);
    raises [Invalid_argument] otherwise or if [gap_ticks <= 0]. *)

val verifier_spec : ?late_policy:int -> t -> Sbt_attest.Verifier.spec
(** [late_policy] is the attested policy code the run declared (0 =
    silent, 1 = drop+declare, 2 = retract-and-reemit; default 0); the
    session gap is taken from the pipeline's [window_kind].  The spec
    sets no freshness bound; a caller that checks one sets
    [freshness_bound] on the returned record. *)

(** {2 The paper's six benchmark pipelines (§9.2)} *)

val win_sum : ?window_size_ticks:int -> ?window_slide_ticks:int -> unit -> t
(** Windowed aggregation over the value field; pass a slide smaller than
    the size for sliding windows (each event then contributes to
    size/slide consecutive windows). *)

val filter : ?window_size_ticks:int -> ?lo:int32 -> ?hi:int32 -> unit -> t
(** FilterBand at the given selectivity band (defaults give ~1%). *)

val fps_chain : ?window_size_ticks:int -> unit -> t
(** Five adjacent fusable per-record batch stages
    (Filter∘Project∘ShiftKey∘Select∘Filter) — the PR 7 fusion showcase.
    The whole chain runs as one {!Dataplane.request.R_invoke} chain per
    segment (one world switch, one composite audit record) instead of
    five length-1 invokes; the sealed results are the ones the five
    stages give one at a time. *)

val group_topk : ?window_size_ticks:int -> ?k:int -> unit -> t
(** Top-K values per key per window. *)

val distinct : ?window_size_ticks:int -> unit -> t
(** Count of distinct keys per window (the taxi benchmark). *)

val temp_join : ?window_size_ticks:int -> unit -> t
(** Temporal join of two input streams on equal keys per window. *)

val power_grid : ?window_size_ticks:int -> ?k:int -> unit -> t
(** The Figure 2 power pipeline: per-plug average, global average,
    per-house count of above-average plugs, top-K houses. *)

(** {2 Additional operator pipelines (Table 2 coverage)} *)

val union_count : ?window_size_ticks:int -> unit -> t
(** Union of two input streams, counted per window (Table 2's Union). *)

val load_predict : ?window_size_ticks:int -> ?alpha_percent:int -> unit -> t
(** The full Figure 2 example: per-house average load per window, then an
    in-TEE exponentially weighted moving average over recent windows as
    the next-window prediction.  The EWMA runs as a certified [Combine2]
    UDF over a cross-window state uArray; [alpha_percent] is the EWMA
    weight on the current window (default 50).  Stateful: build a fresh
    pipeline per run. *)

val sum_per_key : ?window_size_ticks:int -> unit -> t
val avg_per_key : ?window_size_ticks:int -> unit -> t
val median_per_key : ?window_size_ticks:int -> unit -> t
val count_by_window : ?window_size_ticks:int -> unit -> t
val min_max : ?window_size_ticks:int -> unit -> t

val vitals : ?window_size_ticks:int -> unit -> t
(** Medical telemetry: per-patient (key) average vitals per window, after
    the TEE medical-streaming case study.  No batch stages, and the
    window plan (Concat, Sort, Avg_per_key) is insensitive to segment
    arrival order, so a retract-and-reemit correction over
    {originals + late arrivals} reproduces the in-order run's bytes
    exactly — the disorder workhorse. *)
