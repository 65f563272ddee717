(** Multi-tenant consolidation: N pipelines in one enclave (DESIGN.md §13).

    One TEE hosts many small tenant pipelines — the paper's
    consolidation argument (§4) at scale, and the opposite design point
    from per-stage-enclave systems.  Isolation is internal:

    - {b quotas} — a tenant's secure pool is capped at [quota_pages]
      4 KiB pages; going over sheds {e that tenant's} ingest, which
      degrades it (signed Gap, declared loss, verdict still ok) while
      its co-tenants run clean;
    - {b namespaces} — opaque refs are minted into a shared in-enclave
      ownership map; a ref crossing tenants is rejected in-TEE
      ({!Dataplane.Cross_tenant_ref});
    - {b fair scheduling} — the recorded task graphs interleave by
      deficit round-robin, so one heavy tenant cannot starve the p99
      output delay of the rest;
    - {b tenant-scoped attestation} — each tenant's audit sub-stream is
      MAC'd under its own derived key
      ({!Sbt_attest.Verifier.tenant_key}) and judged independently
      ({!Sbt_attest.Verifier.verify_tenants}).

    {b Invariant} (tested by the joint-equals-solo property): a tenant's
    sealed results, audit bytes and verdict depend only on its own
    [{id; pipeline; source; quota}] — never on its co-tenants.  The
    merged schedule and every fairness number are measurement. *)

type tenant = {
  id : int;  (** unique, non-negative; tenant 0 inherits the base egress key *)
  pipeline : Pipeline.t;
  source : Sbt_net.Frame.t list;
  quota_pages : int option;
      (** secure-DRAM quota in 4 KiB pages; [None] = uncapped (the
          platform's full secure region) *)
}

type tenant_result = {
  tr_id : int;
  tr_run : Runtime.run_result;  (** the tenant's own full recording *)
  tr_delays : (int * float) list;
      (** (window, output delay ns) in the merged fair schedule *)
  tr_max_delay_ns : float;
  tr_mean_delay_ns : float;
}

type result = {
  tenants : tenant_result list;  (** id-ascending *)
  report : Sbt_attest.Verifier.tenants_report option;
      (** per-tenant independent verdicts; [None] iff [~verify:false] *)
  merged : Sbt_sim.Trace.t;  (** the DRR-interleaved task graph *)
  makespan_ns : float;  (** merged schedule on [cfg.cores] virtual cores *)
  agg_events : int;
  agg_events_per_sec : float;  (** aggregate enclave throughput *)
  p99_delay_ns : float;  (** p99 of per-window output delay across all tenants *)
  max_delay_ns : float;
  registry : Sbt_obs.Metrics.t;
      (** root registry: each tenant's counters live under
          [tenant<id>.*] and enclave totals under [tenants.*]
          ([count], [events], [windows], [sheds], [gaps_declared],
          [events_dropped]) *)
}

val window_stride : int
(** Merged-trace window ids are [w + slot * window_stride] so replay
    delays can be attributed per tenant — a measurement encoding only. *)

val tenant_config : Runtime.config -> owners:(int64, int) Hashtbl.t -> tenant -> Runtime.config
(** The tenant's view of a shared-enclave config: egress/audit key
    derived from the base key by tenant id, secure pool capped at the
    tenant's quota, opaque refs minted into (and guarded against)
    [owners].  Tenant 0 with no quota yields a config observably
    identical to the input — the 1-tenant special case. *)

val run : ?registry:Sbt_obs.Metrics.t -> ?verify:bool -> Runtime.config -> tenant list -> result
(** Admit the tenants into one enclave and run them all.  Each tenant
    records under its own data plane (derived egress key, quota-capped
    pool, shared ref namespace, [tenant<id>.*] metrics scope); the
    merged DRR schedule is then replayed on [cfg.cores] virtual cores
    for fairness numbers.  [verify] (default true) runs
    {!Sbt_attest.Verifier.verify_tenants}.  Raises [Invalid_argument]
    on an empty tenant list, duplicate or negative ids, or a
    non-positive quota. *)
