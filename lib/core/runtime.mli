(** The run API: one entry point, one engine.

    {!run} executes a pipeline over a frame stream once, for real: the
    control plane runs and every data-plane effect happens once,
    serially, while the discrete-event simulator ({!Sbt_sim.Des})
    schedules the run's task graph on [cfg.cores] {e virtual} cores and
    accounts virtual time.  The paper's multicore figures come from task
    parallelism (many primitive invocations in flight, Fig 7); the DES
    models that from the measured serial task costs, and every figure is
    derived from this recording.  There is no real-domain engine.

    Determinism across {e processes} needs a noise-free cost model
    ([host_scale = 0]); see {!Sbt_tz.Cost_model.free}. *)

type config = {
  dp_config : Dataplane.config;
  cores : int;  (** virtual cores the DES schedules the recording on *)
  hints_enabled : bool;
}
(** Batch stages always run as [Ir.fuse (Ir.lower pipe)]: each maximal
    run of adjacent per-record stages is one chain in one
    {!Dataplane.request.R_invoke} (one world switch, one composite audit
    record), and every other stage is a length-1 chain.  There is no
    unfused mode; tests reach the unfused lowering through {!Ir.lower}. *)

(** Labelled construction for {!config}.  [make]'s data-plane labels are
    forwarded to {!Dataplane.Config.make}. *)
module Config : sig
  type t = config

  val make :
    ?version:Dataplane.version ->
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
    ?late_policy:Dataplane.late_policy ->
    ?tracer:Sbt_obs.Tracer.t ->
    ?hints_enabled:bool ->
    unit ->
    t
  (** Defaults: 8 cores, hints on, and
      {!Dataplane.Config.make}'s defaults for the data plane.  [cores]
      sizes both the recording DES and the data-plane platform.
      [deterministic] zeroes the cost model's [host_scale] (see
      {!Dataplane.Config.make}). *)
end

(** Loss accounting for one run: what graceful degradation dropped, and
    declared.  Every drop is covered by a signed Gap record, so
    [gaps_declared >= batches_dropped] whenever loss occurred. *)
module Loss : sig
  type t = private {
    gaps_declared : int;  (** signed Gap records: link holes + dropped batches *)
    batches_dropped : int;  (** frames lost to the link or shed past the retry budget *)
    events_dropped : int;  (** events inside dropped frames (link holes excluded) *)
  }

  val v : gaps_declared:int -> batches_dropped:int -> events_dropped:int -> t
  val gaps_declared : t -> int
  val batches_dropped : t -> int
  val events_dropped : t -> int
end

type run_result = {
  results : (int * Dataplane.sealed_result) list;  (** per closed window *)
  corrections : (int * int * Dataplane.sealed_result) list;
      (** (window, generation, sealed) — superseding re-emissions under
          the retract-and-reemit late policy, in emission order.
          Generations are 1-based and contiguous per window; apply with
          {!Dataplane.reseal_correction} (highest generation wins).
          Empty under any other policy. *)
  trace : Sbt_sim.Trace.t;
  dp_stats : Dataplane.stats;
  pool_high_water_bytes : int;
  mem_samples_bytes : int list;
      (** committed secure memory sampled at every window close — the
          steady-state usage Figure 7 annotates *)
  audit : Sbt_attest.Log.batch list;
  verifier_spec : Sbt_attest.Verifier.spec;
  makespan_ns : float;
  total_events : int;
  tasks_executed : int;
  live_refs_after : int;
  loss : Loss.t;  (** what degradation dropped — see {!Loss} *)
  registry : Sbt_obs.Metrics.t;
      (** the normal-world metrics registry for this run (always
          populated; counting is deterministic and costs no virtual
          time).  Control-plane counters here double-book the loss
          accounting above so tests can cross-check them. *)
  tee_metrics : bytes;
      (** TEE-side registry snapshot ({!Sbt_obs.Metrics.encode_snapshot}),
          exported through the quote path — never read directly *)
  tee_quote : Sbt_attest.Quote.quote;
      (** quote over [Sha256 (tee_metrics)] under the device key, nonce
          ["sbt-run-final"] *)
}

val run :
  ?registry:Sbt_obs.Metrics.t -> config -> Pipeline.t -> Sbt_net.Frame.t list -> run_result
(** Execute the pipeline over the frame stream, scheduled by the DES on
    [cfg.cores] virtual cores.

    This is the single-pipeline run; {!Session} admits several tenant
    pipelines into one enclave, and a 1-tenant [Session.run_single] is
    this function under the tenant's config.

    [registry] supplies the control-plane metrics registry (possibly a
    {!Sbt_obs.Metrics.scoped} view, e.g. a tenant's [tenantN.*] scope);
    by default a fresh registry is created.  Metrics are measurement
    only — no observable depends on which registry absorbs them.

    Frames must arrive in source order (watermarks after the data they
    cover); the last frame should be a watermark closing every window.

    Faults degrade, never crash: transient SMC refusals are retried with
    exponential backoff up to the fault plan's budget; corrupt or
    unauthenticated frames, pool sheds, and link sequence holes each drop
    the affected batch and emit a signed Gap audit record, so the cloud
    verifier reports the loss as degradation instead of tampering. *)

exception
  Crashed of {
    site : Sbt_fault.Fault.site;
    uploads : Sbt_attest.Log.batch list;  (** audit batches durable at crash, oldest first *)
    results : (int * Dataplane.sealed_result) list;  (** results egressed before the crash *)
  }
(** An injected crash ({!Sbt_fault.Fault.plan}[.crash]) killed the run.
    The payload is exactly what the normal world already held durably —
    everything in-TEE is gone: the run's own uploads and results from
    {!run}, the node's stitched ones from {!Node.boot}.
    {!run_supervised} catches this and restarts; it escapes only when the
    restart budget is exhausted (or the caller ran {!run} directly with a
    crash armed). *)

(** Result of a supervised (crash-recovering) run: the stitched durable
    state after every boot epoch, plus the multi-epoch verifier's
    report.  For a given [ckpt_every], [sv_results] and [sv_audit] are
    byte-identical whether or not crashes occurred — the exactly-once
    guarantee the recovery tests and the CI smoke assert. *)
type supervised = {
  sv_results : (int * Dataplane.sealed_result) list;  (** stitched, ascending window *)
  sv_audit : Sbt_attest.Log.batch list;  (** stitched, oldest first *)
  sv_epochs : (Sbt_attest.Epoch.sealed * Sbt_attest.Log.batch list) list;
      (** one (sealed manifest, audit slice) per boot epoch, oldest
          first — the exact input {!Sbt_attest.Verifier.verify_epochs}
          takes *)
  sv_report : Sbt_attest.Verifier.report;
      (** multi-epoch verification: no window emitted twice, none lost,
          no rollback, freshness across the restart gap *)
  sv_crash_sites : Sbt_fault.Fault.site list;  (** one per crash, in order *)
  sv_epoch_count : int;  (** boots, = crashes + 1 *)
  sv_replayed_frames : int;  (** frames re-ingested from the replay buffer *)
  sv_checkpoints : int;
  sv_checkpoint_bytes : int;  (** total sealed-blob bytes exported *)
  sv_last_run : run_result option;  (** the completing boot's full result *)
}

(** A resumable per-partition node: the one recovery path, under both
    {!run_supervised} and the fleet.  A [Node.t] owns one key partition's
    durable normal-world state (sealed checkpoint store, source replay
    buffer, stitched audit batches and sealed results) and advances it one
    boot epoch at a time: [boot] completes the partition's stream, halts
    at the first checkpoint boundary past [halt_after_window] (the fleet's
    kill/fence point — the checkpoint is durable, in-TEE state is lost,
    exactly the [Crash_reboot] cut), or dies of an injected crash.  A
    later [boot] — on the same edge, or on whichever edge owns the
    partition after a handoff — derives the rollback floor from the
    Checkpoint records of the signed audit stream, unseals the newest
    durable checkpoint into a fresh data plane, trims the stitched
    uploads and results back to its cut and replays the unacknowledged
    frame suffix, so the stitched output is byte-identical to an
    uninterrupted run with the same [ckpt_every]. *)
module Node : sig
  type t

  type outcome =
    | Completed  (** the partition's stream is fully processed *)
    | Halted of { at_window : int }
        (** stopped at the scheduled boundary; durable state is a
            consistent resume point *)

  val create : ?ckpt_every:int -> config -> Pipeline.t -> Sbt_net.Frame.t list -> t
  (** [ckpt_every] defaults to 1 (a checkpoint at every closed window —
      every fleet beat is a potential kill point). *)

  val boot : ?registry:Sbt_obs.Metrics.t -> ?halt_after_window:int -> t -> outcome
  (** Run one boot epoch.  [registry] (typically a
      {!Sbt_obs.Metrics.scoped} view named after the executing edge)
      receives the boot's control-plane counters; omitted, each boot gets
      a private registry.  On an already-[finished] node this is a no-op
      returning [Completed].

      An injected crash ends the boot the way a halt does — its epoch,
      uploads and results are kept — and clears the crash from the
      node's fault plan for later boots; then {!Crashed} is raised,
      carrying the node's stitched uploads and results. *)

  val finished : t -> bool
  val epoch_count : t -> int  (** boots so far *)

  val results : t -> (int * Dataplane.sealed_result) list
  (** Stitched durable results, ascending window. *)

  val audit : t -> Sbt_attest.Log.batch list
  (** Stitched durable audit batches, oldest first. *)

  val epochs : t -> (Sbt_attest.Epoch.sealed * Sbt_attest.Log.batch list) list
  (** One (sealed manifest, audit slice) per boot, oldest first — the
      per-chain input {!Sbt_attest.Verifier.verify_epochs} takes. *)

  val manifests : t -> Sbt_attest.Epoch.manifest list
  (** The unsealed epoch manifests, oldest first (handoff manifests copy
      the recipient's resume coordinates from here). *)

  val acked_frames : t -> int
  (** Source-replay cursor: frames acknowledged by durable checkpoints —
      the resume cursor a handoff manifest records. *)

  val vt_ns : t -> float
  (** Accumulated virtual time across boots. *)

  val total_events : t -> int
  (** Populated once [finished]. *)

  val replayed_frames : t -> int
  val checkpoints : t -> int
  val checkpoint_bytes : t -> int
end

val run_supervised :
  ?max_restarts:int ->
  ?ckpt_every:int ->
  config ->
  Pipeline.t ->
  Sbt_net.Frame.t list ->
  supervised
(** Run under a normal-world supervisor with sealed TEE checkpoints
    every [ckpt_every] closed windows (default 1) and source-side frame
    replay: {!Node.boot} in a loop over one {!Node.t}.  After an injected
    crash the next boot unseals the latest checkpoint — rejecting
    tampered blobs ({!Sbt_recovery.Seal.Tamper}) and blobs older than the
    newest checkpoint attested in the signed audit stream
    ({!Sbt_recovery.Seal.Rollback}) — rebuilds the data plane,
    re-ingests the unacknowledged frame suffix, and continues; up to
    [max_restarts] (default 3) times, re-raising {!Crashed} beyond
    that.  Stateful cross-window pipelines (operator state held
    in plan closures, e.g. [power_grid]) are not checkpointable — their
    state lives outside the TEE snapshot; use stateless-per-window
    pipelines with recovery.

    Raises [Invalid_argument] when the config's late policy is not
    [Silent] or the pipeline closes session windows: a checkpoint
    carries neither late-data corrections nor session-window state.
    The same check guards {!Node} (hence every fleet run). *)
