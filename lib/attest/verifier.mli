(** Cloud-side verification of edge analytics (paper §7).

    The verifier holds its own copy of the pipeline declaration ({!spec})
    and replays the audit records symbolically — no actual computation —
    checking that

    - every ingested batch was windowed, and every window's data flowed
      through exactly the declared primitives once the window's watermark
      arrived ({e correctness});
    - each result was externalized within the declared delay bound after
      its triggering watermark ({e freshness});
    - no record references a uArray the data plane never produced
      ({e fabricated dataflow});
    - watermarks are monotone.

    Consumption hints are additionally checked in retrospect: a
    consumed-after hint contradicted by the observed consumption order is
    reported as a {e misleading hint} warning — by design a performance
    matter, never a correctness violation (paper §6.2). *)

type spec = {
  batch_ops : int list;
      (** Primitive ids applied, in order, to each windowed segment as it
          is produced (e.g. [\[Sort\]]); each stage is 1-in/1-out. *)
  window_ops : int list;
      (** Multiset of primitive ids executed per window when its watermark
          arrives.  Connectivity inside the group is checked; order
          between parallel branches is not over-constrained. *)
  window_size : int;  (** event-time ticks a window spans *)
  window_slide : int;
      (** ticks between window starts; window [w] covers
          [\[w*slide, w*slide + size)].  Equal to [window_size] for the
          paper's fixed windows. *)
  freshness_bound : int option;
      (** Max tolerated output delay in data-plane timestamp ticks. *)
  late_policy : int;
      (** The attested late-data policy the quote declared: 0 = silent
          (pre-disorder default: late data must simply never surface in
          the audit stream), 1 = drop+declare ({!Record.Late_drop}
          expected), 2 = retract-and-reemit ({!Record.Correction}
          expected).  Late-handling records under any {e other} policy
          fire {!Undeclared_late_handling}. *)
  session_gap : int option;
      (** [Some g]: windows are gap-based sessions (closed after [g]
          ticks of per-window inactivity) rather than a fixed grid.
          Sessions have no spec-derivable closing watermark, so the
          sweep judges exactly the sessions the log emitted — op
          multiset and consumption per emitted window — and skips the
          grid-based completeness and freshness checks. *)
}

type violation =
  | Unknown_uarray of { record_index : int; id : int }
  | Unexpected_batch_op of { id : int; expected : int; got : int }
  | Window_ops_mismatch of { window : int; expected : int list; got : int list }
  | Unprocessed_batch of { id : int }
  | Unprocessed_window_data of { window : int; ids : int list }
  | Double_consumption of { record_index : int; id : int }
  | Missing_egress of { window : int }
  | Duplicate_egress of { window : int }
  | Stale_result of { window : int; delay : int; bound : int }
  | Mixed_window_inputs of { record_index : int }
  | Watermark_regression of { id : int; value : int; prev : int }
  | Egress_of_non_result of { record_index : int; id : int }
  | Undeclared_loss of { stream : int; seq : int }
      (** a frame inside a stream's observed sequence range was neither
          ingested nor covered by a {!Record.Gap} declaration — dataflow
          vanished without the TEE vouching for the loss *)
  | Missing_epoch of { expected : int; got : int }
      (** the boot-epoch chain presented to {!verify_epochs} skips an
          epoch — a whole boot's emissions could hide in the hole *)
  | Checkpoint_rollback of { epoch : int; resumed_from : int; latest : int }
      (** a restart resumed from checkpoint [resumed_from] although the
          presented log attests a newer checkpoint [latest] — a stale
          (or "fresh run") presentation of rolled-back state *)
  | Duplicate_window_across_epochs of { window : int; first_epoch : int; second_epoch : int }
      (** the same window result left the TEE in two different boot
          epochs — exactly-once across the restart gap is broken *)
  | Fleet_partition_loss of { partition : int; missing_windows : int; total_windows : int }
      (** {!Undeclared_loss} at fleet scope: windows of a key partition
          egressed from no edge and were covered by no declared gap — a
          partition silently dropped (wholly, when
          [missing_windows = total_windows]) *)
  | Cross_edge_duplicate of { partition : int; window : int; first_edge : int; second_edge : int }
      (** a partition's window left the TEE on two edges whose chains no
          handoff manifest links — the double-ingestion a manifest-less
          failover hides *)
  | Handoff_unattested of { partition : int; donor : int; recipient : int }
      (** a partition's execution moved between edges with no handoff
          manifest presenting the stitching authority *)
  | Handoff_mismatch of { partition : int; donor : int; recipient : int; reason : string }
      (** a handoff manifest exists but contradicts the donor or
          recipient log (wrong donor edge, resume coordinates the
          recipient's first epoch does not carry, or a resume checkpoint
          the donor log never attested) *)
  | Fused_chain_mismatch of { record_index : int }
      (** a composite {!Record.Fused} record whose chain hash does not
          match its claimed op ids and parameter blob (tampered hash,
          edited params, or a params blob that decodes to a different op
          sequence than the record names) — the composition is forged *)
  | Fused_non_fusable of { record_index : int; op : int }
      (** a composite {!Record.Fused} record smuggles in an op that
          {!Sbt_prim.Primitive.fusable} forbids from fusing (or an id no
          primitive carries) — a stateful or windowing op hidden inside
          one opaque trusted entry *)
  | Tenant_log_unverifiable of { tenant : int; reason : string }
      (** a tenant's audit sub-stream fails authentication under its
          derived key ({!tenant_key}) — that tenant's verdict is a
          violation, but {!verify_tenants} still judges every other
          tenant on its own stream *)
  | Undeclared_late_handling of { record_index : int; window : int }
      (** a {!Record.Late_drop} or {!Record.Correction} record appears
          although the quote declared a different late-data policy — the
          edge handled disorder, but not the way it promised to *)
  | Correction_mismatch of { window : int; expected_gen : int; got_gen : int }
      (** a window's correction generations are not contiguous from 1 in
          emission order (skipped, repeated, or reordered) — the
          cloud-side merge would apply a different history than the TEE
          emitted *)
  | Retraction_without_reemit of { window : int; declared : int; replayed : int }
      (** the log replays more whole-window evaluations than it declares
          emissions (original egress + corrections): a closed window was
          reopened and re-evaluated but the superseding result never
          left the TEE — downstream still trusts a result the edge
          itself retracted *)

val pp_violation : Format.formatter -> violation -> unit

type report = {
  violations : violation list;
      (** record-replay violations in record order, then the end-of-log
          sweeps', each sweep in ascending window (or uArray id) order *)
  misleading_hints : int;
  windows_verified : int;
  records_replayed : int;
  max_delay : int;  (** worst observed output delay (ts ticks) *)
  delays : (int * int) list;  (** (window, delay) per verified window, ascending by window *)
  declared_gaps : int;  (** Gap records replayed *)
  gap_events : int;  (** events the edge declared lost *)
  lost_batches : int;  (** declared-gap frames never ingested *)
  loss_fraction : float;
      (** lost batches over the expected batch count (per-stream observed
          sequence ranges); 0 on a clean run *)
  degraded_windows : int list;
      (** windows named by declared gaps or declared late drops *)
  late_drops : int;  (** {!Record.Late_drop} records replayed *)
  late_events : int;  (** events the edge declared dropped as late *)
  corrections : int;  (** {!Record.Correction} records replayed *)
  corrected_windows : int list;  (** windows with at least one correction *)
}

val ok : report -> bool
(** No violations.  Declared gaps degrade the report (loss summary,
    degraded windows) but never make it not-[ok]; only undeclared missing
    dataflow does. *)

val verify : spec -> Record.t list -> report
(** Replay one contiguous record stream. *)

val verify_epochs : key:bytes -> spec -> (Epoch.sealed * Log.batch list) list -> report
(** Verify a run that spans boot epochs: one (sealed manifest, audit
    batches) segment per epoch.  Authenticates every manifest and batch
    under [key], then checks the chain is contiguous from epoch 0
    ({!Missing_epoch}), that each restart resumed from the newest
    checkpoint the presented log attests ({!Checkpoint_rollback} —
    this also catches a resumed run presented as fresh), and that no
    window was externalized in two epochs
    ({!Duplicate_window_across_epochs}).  Each epoch's batches are then
    trimmed at its successor's authenticated [resume_batch_seq] —
    batches a crashed epoch flushed after its last checkpoint are
    regenerated by the next epoch, and the resume point says which copy
    is canonical — and the concatenation replays through {!verify}.  A
    single-epoch run degenerates to plain {!verify} of its records.
    Raises [Invalid_argument] if a manifest or batch fails its MAC. *)

val pp_report : Format.formatter -> report -> unit

(** {2 Fleet-scope verification}

    [verify_fleet] lifts {!verify_epochs} to M edges over P key
    partitions: each partition's epoch chains are stitched across edges
    only where a sealed {!Handoff} manifest authorizes the link (and its
    coordinates survive cross-checking against both logs), every
    resulting chain is judged by {!verify_epochs} {e independently} — one
    node's violation never taints another's verdict — and two fleet-wide
    invariants are swept on top: every partition of every window egressed
    exactly once somewhere ({!Fleet_partition_loss},
    {!Cross_edge_duplicate}), and no cross-edge execution moved without
    its paperwork ({!Handoff_unattested}, {!Handoff_mismatch}). *)

type edge_chains = {
  edge : int;  (** edge node id *)
  chains : (int * (Epoch.sealed * Log.batch list) list) list;
      (** per partition this edge executed: the contiguous run of boot
          epochs it ran, each with its audit slice (epoch order free —
          manifests carry the ordering) *)
}

type chain_report = {
  cr_partition : int;
  cr_edges : int list;  (** executing edges, chain order *)
  cr_report : report;  (** the chain's independent {!verify_epochs} verdict *)
}

type fleet_report = {
  fleet_violations : violation list;  (** fleet-scope only *)
  chain_reports : chain_report list;  (** per stitched chain, partition-ascending *)
  partitions_expected : int;
  partitions_present : int;  (** partitions with at least one fragment *)
  fleet_windows : int;  (** expected windows per partition *)
  handoffs_verified : int;  (** manifests that authorized a stitch and validated *)
}

val fleet_ok : fleet_report -> bool
(** No fleet-scope violations and every chain report {!ok}. *)

val verify_fleet :
  key:bytes ->
  spec ->
  partitions:int ->
  windows:int ->
  edges:edge_chains list ->
  handoffs:Handoff.sealed list ->
  fleet_report
(** Verify a fleet run of [partitions] key partitions over [windows]
    windows each.  An absent partition, or windows egressed nowhere
    (and not covered by a declared gap), is {!Fleet_partition_loss};
    a partition executing on a second edge without a valid manifest
    leaves two independent chains whose egress overlap surfaces as
    {!Cross_edge_duplicate} (plus {!Handoff_unattested}).  Raises
    [Invalid_argument] if any manifest or batch fails its MAC, or
    [partitions <= 0]. *)

val pp_fleet_report : Format.formatter -> fleet_report -> unit

(** {2 Tenant-scope verification}

    Multi-tenant consolidation (one enclave serving N pipelines) keeps
    the verifier's unit of judgment the single tenant: each tenant's
    audit sub-stream is authenticated under its own derived key and
    replayed through {!verify} independently, so one tenant's violation
    never taints another's verdict.  Cross-tenant dataflow is prevented
    in-enclave (the opaque-ref namespace guard), not re-checked here. *)

val tenant_key : base:bytes -> int -> bytes
(** The egress/audit key of tenant [id], derived from the [base] key the
    edge shares with the cloud: tenant 0 inherits [base] itself (the
    single-tenant run is the 1-tenant special case, byte for byte),
    tenant [id <> 0] gets [Kdf.derive ~master:base ~label:"tenant-<id>:egress"].
    Derivation depends only on the tenant id — never on how many
    co-tenants shared the enclave — so a tenant's sealed results and
    audit stream are identical whether it ran jointly or solo. *)

type tenant_chain = {
  tenant : int;
  t_spec : spec;  (** the tenant's declared pipeline *)
  t_audit : Log.batch list;  (** its audit sub-stream, oldest first *)
}

type tenant_report = { tn_tenant : int; tn_report : report }

type tenants_report = {
  tenant_reports : tenant_report list;  (** tenant-ascending *)
  tenants_total : int;
  tenants_clean : int;  (** [ok] with no declared gaps *)
  tenants_degraded : int;  (** [ok] but with declared loss (e.g. quota sheds) *)
  tenants_violating : int;  (** not [ok] *)
}

val tenants_ok : tenants_report -> bool
(** Every tenant report {!ok} (degraded-but-declared still counts as ok,
    exactly as in single-tenant {!verify}). *)

val verify_tenants : key:bytes -> tenant_chain list -> tenants_report
(** Judge each tenant's audit sub-stream independently under
    [tenant_key ~base:key tenant].  A sub-stream that fails its MAC
    yields {!Tenant_log_unverifiable} for that tenant only — never an
    exception — so co-tenants' verdicts are unaffected. *)

val pp_tenants_report : Format.formatter -> tenants_report -> unit
