(** Edge fleet under churn: partitioned multi-node ingestion, consistent
    key-range failover, and fleet-scope verification.

    [run] drives M simulated edge nodes — each its own engine + TEE
    instance ({!Sbt_core.Runtime.Node}) with its own durable store and
    source-replay buffer — over one workload key-partitioned M ways
    ({!Partition}), then merges per-edge egress cloud-side in canonical
    [(window, partition)] order and judges the whole fleet with
    {!Sbt_attest.Verifier.verify_fleet}.

    {b Time model.}  One beat per closed window.  Edges heartbeat at
    each beat they close; the {!Detector} ticks after deliveries.  A
    scenario ({!Sbt_fault.Fault.fleet_scenario}) is interpreted
    deterministically:

    - a {e transient kill} halts the edge at the checkpoint boundary for
      its beat and reboots it [recover_after] beats later — if that is
      inside the suspicion window, the same edge resumes from its own
      durable checkpoint and no death is declared;
    - a {e permanent kill} (or any silence reaching [suspect_after]
      missed beats — a long uplink partition, a straggler too slow to
      beat the detector) declares the edge dead, permanently fenced;
    - death triggers {e attested handoff}: the partition's key range is
      re-assigned to the lowest-id eligible survivor (never-dead, no
      kill of its own this run), which adopts the dead edge's store and
      replay buffer, resumes from the last acknowledged checkpoint
      cursor, and re-ingests the un-acknowledged suffix.  A signed
      {!Sbt_attest.Handoff} manifest (range, donor epoch, recipient,
      resume coordinates) is sealed as the stitching authority the
      fleet verifier demands.

    Because kills cut exactly at durable checkpoint boundaries, a
    churned fleet's merged egress is byte-identical to the un-churned
    run's — the PR-5 crash-recovery invariant lifted to fleet scope. *)

exception No_survivor of { partition : int; beat : int }
(** Raised when a partition's edge dies and no eligible survivor
    remains ([sbt_run] maps this to exit 3). *)

type fate =
  | Ran  (** no churn, or survived its event *)
  | Recovered of { halted_at : int; resumed_beat : int }
      (** transient crash, recovered on the same edge *)
  | Dead of { declared_at : int; fenced_window : int option; recipient : int option }
      (** declared dead; [fenced_window] is where execution authority
          ended ([None] if the partition finished first), [recipient]
          the adopting survivor ([None] if nothing was left to adopt) *)

type summary = {
  nodes : int;
  windows : int;  (** windows the workload closes (also the beat count) *)
  merged : (int * int * Sbt_core.Dataplane.sealed_result) list;
      (** combiner output: [(window, partition, sealed)] in canonical
          ascending [(window, partition)] order *)
  report : Sbt_attest.Verifier.fleet_report;
  edges : Sbt_attest.Verifier.edge_chains list;
      (** the verifier input: per-edge epoch chains by partition — what
          an audit bundle ships to the cloud *)
  handoffs : (Sbt_attest.Handoff.manifest * Sbt_attest.Handoff.sealed) list;
  fates : fate array;  (** per edge *)
  deaths : int;
  suspicions_raised : int;
  suspicions_cleared : int;
  fenced_heartbeats : int;
  replayed_frames : int;  (** replay-buffer frames re-ingested by recoveries *)
  total_events : int;  (** workload events (all partitions) *)
  makespan_ns : float;
      (** slowest edge's virtual time (straggle-scaled) plus shipping
          the merged egress over the {!Sbt_net.Link.uplink} *)
  uplink_bytes : int;  (** sealed egress bytes shipped to the combiner *)
  registry : Sbt_obs.Metrics.t;
      (** per-edge scoped engine counters ([edge3.control.*]) plus
          fleet-scope totals ([fleet.*]) *)
}

val run :
  ?ckpt_every:int ->
  ?rogue_handoff:bool ->
  scenario:Sbt_fault.Fault.fleet_scenario ->
  nodes:int ->
  batch_events:int ->
  Sbt_core.Runtime.config ->
  Sbt_core.Pipeline.t ->
  Sbt_net.Frame.t list ->
  summary
(** Run the fleet over a cleartext workload frame stream (see
    {!Partition.split} for partitioning rules; [batch_events] is the
    workload's batch size).  A fleet partitions one pipeline; several
    tenants in one enclave are {!Sbt_core.Session}'s job.  [ckpt_every]
    defaults to 1 so every beat is a consistent kill point.  The config's
    fault plan supplies the reconnect backoff for uplink partitions.

    [rogue_handoff] simulates an adversarial failover: the survivor
    re-runs the dead edge's partition from scratch and discards the
    manifest, leaving two unlinked chains whose overlapping egress the
    fleet verifier must flag ({!Sbt_attest.Verifier.Handoff_unattested}
    + [Cross_edge_duplicate]); the merged output then contains the
    duplicates — it is an attack demonstration, not a recovery mode.

    Raises {!No_survivor} when a death finds no eligible adopter, and
    [Invalid_argument] on an empty fleet, a workload closing no
    windows, a scenario naming a node outside the fleet, or a config or
    pipeline a checkpoint cannot carry (see
    {!Sbt_core.Runtime.run_supervised}). *)
