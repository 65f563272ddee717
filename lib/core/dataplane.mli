(** The StreamBox-TZ data plane: everything that lives in the TEE.

    The data plane encloses (i) all analytics data in uArrays, (ii) the
    trusted primitives as the only computations allowed on that data, and
    (iii) the minimum runtime: the specialized memory allocator and the
    audit log.  The untrusted control plane reaches it exclusively through
    {!Sbt_tz.Smc} with the paper's four-entry interface, passing opaque
    references (paper §3.2, §4.2).

    Engine versions (paper Table 5) differ only in their ingestion path
    and cost model; they are selected by {!version}. *)

type version =
  | Full  (** trusted IO, encrypted ingress *)
  | Clear_ingress  (** trusted IO, cleartext ingress (trusted link) *)
  | Io_via_os  (** ingress copied through the untrusted OS *)
  | Insecure  (** no TEE at all: native StreamBox with SBT's compute *)

val version_name : version -> string

type namespace = { ns_tenant : int; ns_owners : (int64, int) Hashtbl.t }
(** A tenant namespace for multi-tenant enclaves (PR 8): [ns_owners] is
    the enclave-level ownership map shared by every tenant's data plane,
    [ns_tenant] the tenant this config's plane mints refs for.  A ref
    presented by the wrong tenant raises {!Cross_tenant_ref} in-TEE.  The
    map is host-side bookkeeping: it never perturbs virtual time, the
    RNG, results, or audit bytes, so a namespaced run is observably
    identical to a solo run. *)

(** What the TEE does with a record whose window has already closed (the
    out-of-order story).  The policy is part of the attestation surface:
    anything but [Silent] is registered as a ["tee.late_policy"] gauge in
    the quoted metrics snapshot, and
    {!Sbt_attest.Verifier.Undeclared_late_handling} fires when the audit
    stream shows late handling the quote never declared. *)
type late_policy =
  | Silent  (** late data is retired without a trace (the historical behaviour) *)
  | Drop_declare
      (** late data is dropped in-TEE but declared: a signed
          {!Sbt_attest.Record.Late_drop} record feeds the verifier's
          degradation verdict *)
  | Retract_reemit
      (** a closed window reopens: the enclave re-runs the window plan
          over {originals + late data} and seals a superseding
          {!Sbt_attest.Record.Correction}; the cloud merge applies
          corrections in generation order *)

val late_policy_code : late_policy -> int
(** The attested wire code: 0 = silent, 1 = drop+declare, 2 = retract+reemit. *)

type config = {
  version : version;
  platform : Sbt_tz.Platform.t;
  alloc_mode : Sbt_umem.Allocator.mode;
  ingress_key : bytes;
      (** AEAD key shared with sources ({!Sbt_crypto.Aead}): frames are
          decrypted and their tags checked under it *)
  egress_key : bytes;
      (** key shared with the cloud consumer: sealed results use it as an
          AEAD key; audit batches, quotes and checkpoints use it with
          HMAC-SHA256.  The data plane derives both AEAD keys once, at
          {!create} *)
  backpressure_threshold : float;
      (** pool-usage fraction above which ingestion stalls the source *)
  seed : int64;
  fault_plan : Sbt_fault.Fault.plan;
      (** deterministic fault injection (SMC entry refusal, forced pool
          sheds); {!Sbt_fault.Fault.none} by default — the injection path
          is then never consulted and behaviour is identical to a build
          without the fault layer *)
  late_policy : late_policy;
      (** attested late-data policy; [Silent] (the default) keeps the
          historical behaviour and quote bytes *)
  tracer : Sbt_obs.Tracer.t option;
      (** virtual-time trace sink shared with the DES and control plane;
          [None] (the default) records nothing.  Spans are keyed to the
          TEE's virtual clock and modeled/virtual costs, so enabling
          tracing cannot change any result, audit byte, or verdict. *)
  pool_budget_bytes : int option;
      (** secure-pool budget override, page-granular — how per-tenant
          DRAM quotas are enforced ({!Sbt_core.Session} sets it per
          tenant); [None] (the default) sizes the pool to the platform's
          full secure region *)
  namespace : namespace option;
      (** tenant namespace this plane mints and guards refs under;
          [None] (the default, single-tenant) skips all guarding *)
}

(** Labelled construction for {!config} — the one way to build a config
    without writing out every field. *)
module Config : sig
  type t = config

  val make :
    ?version:version ->
    ?cores:int ->
    ?secure_mb:int ->
    ?cost:Sbt_tz.Cost_model.t ->
    ?deterministic:bool ->
    ?platform:Sbt_tz.Platform.t ->
    ?alloc_mode:Sbt_umem.Allocator.mode ->
    ?ingress_key:bytes ->
    ?egress_key:bytes ->
    ?backpressure_threshold:float ->
    ?seed:int64 ->
    ?fault_plan:Sbt_fault.Fault.plan ->
    ?late_policy:late_policy ->
    ?tracer:Sbt_obs.Tracer.t ->
    unit ->
    t
  (** Defaults reproduce the paper's Full engine on an 8-core, 512 MB
      platform: hint-guided allocator, backpressure at 90% pool usage, no
      faults, no tracer, no tenant namespace ({!Sbt_core.Session} sets one
      with a record update).  The data plane always sorts with the radix sort
      and keeps an audit log (flushed every 256 records) unless the
      version is [Insecure].
      [cost] defaults per [version] ({!Sbt_tz.Cost_model.free} for
      [Insecure], [default] otherwise); [deterministic] (default false)
      zeroes that cost's [host_scale], so recorded costs carry no measured
      host time and results, audit bytes and verdicts reproduce across
      processes.  Passing [platform] overrides
      [cores]/[secure_mb]/[cost]/[deterministic] wholesale. *)
end

type t

(** Consumption hints attached by the control plane to an invocation's
    outputs (paper §6.2): advisory, validated never to affect
    correctness. *)
type hint = H_after of int64 | H_parallel

type param =
  | P_key_field of int
  | P_value_field of int
  | P_ts_field of int
  | P_window_size of int
  | P_slide of int  (** sliding-window slide; defaults to the window size *)
  | P_k of int
  | P_lo of int32
  | P_hi of int32
  | P_shift of int
  | P_fields of int array
  | P_session_gap of int
      (** Segment only: switch from the fixed window grid to gap-based
          session windowing.  Assignment is stateful, global and in-order
          across batches (a new session opens after the gap's worth of
          event-time silence); the "window" number of each output is the
          session id, and egress refuses to seal a session until the
          watermark clears its last event time plus the gap. *)

(** The windowing step an ingest may carry (see {!R_ingest_events}):
    - [segment]: Segment's parameters.  Segment's outputs take no hint:
      each starts a fresh group, which is what [H_parallel] asks for.
    - [first_open]: the first window not yet closed.  Segments of earlier
      windows come back unstaged, for the late policy.
    - [plan]: the batch-stage chains, run in order on each open segment.
      Each chain means what it means in {!R_invoke} and must have one
      output.
    - [stage_hints]: per window, the hints for its stage outputs. *)
type windowing = {
  segment : param list;
  first_open : int;
  plan : (Sbt_prim.Primitive.t * param list) list list;
  stage_hints : (int * hint list) list;
}

type output = { win : int; ref_ : int64; events : int }

type sealed_result = { window : int; cipher : bytes; tag : bytes; events : int; width : int }
(** A window's rows, little-endian fields, AES-CTR encrypted under the
    egress key and the window's nonce.  [tag] is the 16-byte
    {!Sbt_crypto.Aead} tag over the cipher bytes and (domain, window,
    generation, events, width), the domain byte ['R'] for a result and
    ['C'] for a correction.  [Insecure] results are plaintext with an
    empty tag, which {!open_result} refuses. *)

(** Why the TEE turned an ingest away, before the frame was in. *)
type refusal =
  | Corrupt_ingress
      (** the payload is not a whole number of records, or the frame is
          encrypted or tagged and its tag is missing or does not verify *)
  | Pool_pressure
      (** the secure pool cannot absorb the batch (or the fault plan
          forced a shed): load shedding, not a crash *)

(** The reply to {!R_ingest_events}. *)
type ingested =
  | Ingested of { outs : output list; stalled_ns : float }
      (** [stalled_ns > 0] models backpressure: secure-memory usage was
          above the threshold, so the source was slowed by that long
          before this batch could enter (paper §4.2) *)
  | Refused of { reason : refusal; stalled_ns : float }
      (** The batch was not ingested and no invocation was counted
          ({!stats}).  The source must stall [stalled_ns]: 0 for
          [Corrupt_ingress]; for [Pool_pressure] it escalates with
          consecutive sheds.  The caller degrades by declaring a gap
          ({!R_declare_gap}). *)

type checkpoint = { blob : bytes; seq : int }
(** Sealed checkpoint ciphertext and its monotonic sequence number (also
    recorded in the signed audit log, giving the verifier a rollback
    lower bound). *)

(** A request names the type of its reply: [call t r] returns an ['a]
    for an ['a request]. *)
type _ request =
  | R_ingest_events : {
      payload : bytes;
      encrypted : bool;
      stream : int;
      seq : int;
      mac : bytes;
          (** the frame's AEAD tag ({!Sbt_net.Frame.mac_payload}).  An
              encrypted frame must carry a valid one; a clear frame may
              carry none ([Bytes.empty]) *)
      windowing : windowing option;
    }
      -> ingested request
      (** Ingest one frame.  Without [windowing] the reply holds the batch
          itself ([win = -1]).  With it, the same call runs Segment on the
          batch and the plan on every segment whose window is open, and
          replies with one output per window: the plan's result, or the
          unstaged segment of a closed window.  The audit gets the
          Ingress record, the Windowing records, then one record per plan
          step per open segment.  A refusal ({!Refused}) comes before the
          frame is in; a rejection by Segment or a stage ({!Rejected})
          comes after. *)
  | R_ingest_watermark : { value : int } -> int request
      (** Replies with the watermark's audit id, which later invocations
          cite as their trigger. *)
  | R_declare_gap : {
      stream : int;
      seq : int;
      events : int;
      windows : int list;
      reason : Sbt_attest.Record.gap_reason;
    }
      -> unit request
      (** Declare, inside the TEE, that a frame was lost to a benign
          fault.  Emits a signed {!Sbt_attest.Record.Gap} audit record so
          the cloud verifier reports degradation instead of flagging the
          missing dataflow as tampering. *)
  | R_invoke : {
      chain : (Sbt_prim.Primitive.t * param list) list;
      inputs : int64 list;
      trigger : int option;  (** audit id of the triggering watermark *)
      hints : hint list;
      retire_inputs : bool;
    }
      -> output list request
      (** Run a chain of one or more (primitive, params) steps in one call
          of the shared invoke entry: one world-switch pair and one audit
          record, however long the chain.  Replies with the outputs.
          - A length-1 chain is a plain invoke of any primitive.  It emits
            one {!Sbt_attest.Record.Execution} record ({!Sbt_attest.Record.Windowing}
            records for [Segment]).
          - A chain of two or more steps must be all per-record ops
            ({!Sbt_prim.Primitive.fusable}) over one input uArray.  It runs
            as one kernel ({!Sbt_prim.Fused.run}) and emits one composite
            {!Sbt_attest.Record.Fused} record carrying the ordered op ids,
            the encoded parameters and an in-TEE chain hash.  Each step's
            parameters mean what they mean in a length-1 invoke.
          {!Rejected} for an empty chain, a non-fusable op inside a longer
          chain, or a chain invalid for the input width
          ({!Sbt_prim.Fused.width_after}). *)
  | R_egress : { input : int64; window : int } -> sealed_result request
      (** Seal a window's result for the cloud; the input dies in-TEE. *)
  | R_late_drop : { input : int64; window : int } -> unit request
      (** Drop+declare a late batch: the input dies in-TEE, but a signed
          {!Sbt_attest.Record.Late_drop} (window, event count) makes the
          loss a declared, attested fact rather than silence. *)
  | R_egress_correction : { input : int64; window : int; gen : int } -> sealed_result request
      (** Seal a superseding result for an already-egressed window under
          the correction nonce domain for ([window], [gen]); emits a
          {!Sbt_attest.Record.Correction}.  Generations are 1-based and
          must stay within a byte ({!Rejected} otherwise). *)
  | R_install_udf : { udf : Udf.t; cert : bytes } -> unit request
      (** Admit a certified UDF (paper §4.2); the certificate must verify
          under the trusted party's key or the request is {!Rejected}. *)
  | R_invoke_udf : {
      name : string;
      version : int;
      inputs : int64 list;
      trigger : int option;
      value_field : int;
      hints : hint list;
      retire_inputs : bool;
      state_output : bool;
          (** allocate the output with {!Sbt_umem.Uarray.State} scope: it
              survives primitive executions and is only freed by an
              explicit [R_retire] (operator state, paper §6.1) *)
    }
      -> output request
      (** Run an installed UDF over the value field of one uArray;
          replies with its one output. *)
  | R_retire : { input : int64 } -> unit request
      (** Explicitly retire a uArray — required for State-scope arrays,
          which ordinary [retire_inputs] never touches. *)
  | R_checkpoint : { control : bytes; watermark : int } -> checkpoint request
      (** The Checkpoint trusted primitive (crash recovery).  Appends a
          {!Sbt_attest.Record.Checkpoint} audit record, flushes the log,
          serializes all volatile TEE state (PRNG limbs, allocator and
          audit-log cursors, every live uArray with its opaque reference)
          together with the caller-supplied opaque [control] section, and
          seals the blob under the device key ({!Sbt_recovery.Seal}).
          Only ciphertext crosses to normal-world storage. *)

exception Rejected of string
(** Structurally invalid request (wrong arity, bad params, fabricated
    reference surfaced as {!Opaque.Invalid_reference} instead), or a
    Segment or stage rejection once an ingested frame is in. *)

exception Cross_tenant_ref of { ref_ : int64; owner : int; tenant : int }
(** A live reference belonging to [owner] reached [tenant]'s dispatch: the
    confused-control-plane case the tenant namespace exists to catch.
    Distinct from {!Opaque.Invalid_reference} (fabricated/stale ref) —
    the ownership check fires in-TEE before any table lookup. *)

val create : config -> t
(** Builds the platform-attached data plane.  The [Init] entry is
    crossed once here. *)

type restored = {
  rt : t;  (** the recovered data plane (fresh boot, restored state) *)
  control : bytes;  (** the opaque control-plane section, returned verbatim *)
  ckpt_seq : int;  (** the checkpoint's authenticated sequence number *)
  log_seq : int;  (** the audit-log batch cursor at checkpoint time *)
}

val restore : config -> expect_seq:int -> bytes -> restored
(** Boot-time recovery: create a fresh data plane from [config] and replay
    a sealed checkpoint into it.  Raises {!Sbt_recovery.Seal.Tamper} if the
    blob fails authentication and {!Sbt_recovery.Seal.Rollback} if its
    sequence number is below [expect_seq] (the supervisor derives
    [expect_seq] from Checkpoint records in the signed audit log, so a
    rolled-back blob cannot masquerade as the latest). *)

val call : t -> 'a request -> 'a
(** Cross into the TEE through the shared invoke entry ([Insecure]
    version: plain call, no crossing) and return the request's reply.
    Raises {!Sbt_tz.Smc.Entry_busy} when the fault plan has the monitor
    bounce an ingest before any world switch. *)

val debug_dump : t -> string
(** The fourth (debug) entry: a one-line state summary. *)

val finalize : t -> unit

(** {2 Audit and results plumbing (cloud side of the model)} *)

val uploaded_batches : t -> Sbt_attest.Log.batch list
(** Signed audit batches flushed so far, oldest first. *)

val audit_records_for_test : t -> Sbt_attest.Record.t list
(** Decode all uploaded batches plus pending records — test/verify helper
    that performs the MAC checks a real consumer would. *)

val open_result : egress_key:bytes -> sealed_result -> int32 array array
(** Authenticate and decrypt an egressed window result (the cloud
    consumer's view).  Raises [Invalid_argument] unless [tag] is a valid
    16-byte tag for this window's result with these [events] and
    [width]. *)

val reseal_correction : egress_key:bytes -> gen:int -> sealed_result -> sealed_result
(** The cloud-side correction merge step: authenticate a
    [R_egress_correction] result, open it under its (window, [gen])
    correction nonce and re-seal it under the canonical egress nonce.
    After the merge the corrected window is byte-identical to what an
    in-order run would have sealed, so {!open_result} (and any downstream
    consumer) treats it like an original.  Raises [Invalid_argument] on a
    bad tag; identity on untagged ([Insecure]) results, which
    {!open_result} refuses. *)

(** {2 Accounting} *)

type stats = {
  compute_ns : float;  (** measured host time inside primitives *)
  mem_ns : float;  (** measured host time in alloc/retire *)
  crypto_ns : float;  (** measured host time in en/decryption *)
  ingest_ns : float;  (** measured host time unpacking ingress data *)
  switch_pairs : int;
  modeled_switch_ns : float;
  modeled_copy_ns : float;
  invocations : int;
  events_ingested : int;
  bytes_ingested : int;
  backpressure_stalls : int;
  sheds : int;  (** ingests refused under pool pressure ({!Pool_pressure}) *)
  smc_busy_rejections : int;
      (** injected transient SMC refusals ({!Sbt_tz.Smc.Entry_busy}) *)
}

val stats : t -> stats
val live_refs : t -> int
val pool_committed_bytes : t -> int
val pool_high_water_bytes : t -> int
val reset_high_water : t -> unit
val allocator : t -> Sbt_umem.Allocator.t
val set_now_ns : t -> float -> unit
(** Advance the TEE's secure clock (driven by the DES's virtual time; a
    real deployment reads a secure timer). *)

val crypto_ns : t -> float
(** {!stats}' crypto total alone, read by a DES task before and after its
    work to charge crypto at the cost model's scale. *)

val now_ns : t -> float
(** The secure clock's current virtual time. *)

val metrics_quote : t -> nonce:bytes -> bytes * Sbt_attest.Quote.quote
(** Export the TEE-side metrics registry the only way secure-world state
    may leave: as a serialized snapshot ({!Sbt_obs.Metrics.encode_snapshot})
    quoted under the device key against the verifier's [nonce] — the same
    path that authenticates audit uploads.  The verifier checks the quote
    against [Sbt_crypto.Sha256.digest payload] before trusting any
    number in it. *)

val set_ingest_width : t -> int -> unit
(** Record width (32-bit fields per event) of ingested payloads —
    installed with the pipeline, part of the certified configuration. *)

val audit_records_produced : t -> int
(** Audit records appended so far, checkpointed boots included. *)
