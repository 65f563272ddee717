(** Multi-tenant consolidation: N pipelines in one enclave (DESIGN.md §12).

    A Session is a run configuration plus the tenant pipelines admitted
    into the enclave:

    {[
      let res =
        Session.create (Runtime.Config.make ())
        |> Session.add_tenant ~pipeline ~source:frames
        |> Session.run
    ]}

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
    merged schedule and every fairness number are measurement.

    Single-tenant is the 1-tenant special case — tenant 0 inherits the
    base egress key and an uncapped pool, so a 1-tenant {!run_single} is
    byte-identical to {!Runtime.run} on the same config.  The other
    capabilities each have one entry point of their own:
    {!Runtime.run_supervised} (crash recovery), {!Runner.run} (rate
    search) and [Sbt_fleet.Fleet.run] (multi-node). *)

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
  report : Sbt_attest.Verifier.tenants_report;  (** per-tenant independent verdicts *)
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

type t

val create : Runtime.config -> t
(** A session with no tenants yet. *)

val add_tenant :
  ?id:int -> ?quota_pages:int -> pipeline:Pipeline.t -> source:Sbt_net.Frame.t list -> t -> t
(** Admit a tenant.  [id] defaults to one past the highest admitted id
    (0 for the first); [quota_pages] caps the tenant's secure pool in
    4 KiB pages (omitted = uncapped). *)

val tenants : t -> tenant list
(** Admitted tenants, id-ascending. *)

val run : t -> result
(** Run all admitted tenants in one enclave.  Each tenant records under
    its own data plane (derived egress key, quota-capped pool, shared
    ref namespace, [tenant<id>.*] metrics scope); the merged DRR
    schedule is then replayed on [cfg.cores] virtual cores for fairness
    numbers, and {!Sbt_attest.Verifier.verify_tenants} judges each
    tenant's audit sub-stream.  Raises [Invalid_argument] when no
    tenant was admitted, on duplicate or negative ids, or on a
    non-positive quota. *)

val run_single : t -> Runtime.run_result
(** The single-tenant fast path: one recording, no merged-schedule
    replay, no verification — {!Runtime.run} under the tenant's config
    with a fresh (unscoped) registry, byte-identical observables
    included.  Raises [Invalid_argument] unless exactly one tenant was
    admitted. *)
