(** The multi-tenant run: N pipelines admitted into one enclave.

    A Session is a run configuration plus the tenant pipelines admitted
    into the enclave:

    {[
      let res =
        Session.create (Runtime.Config.make ())
        |> Session.add_tenant ~pipeline ~source:frames
        |> Session.run
    ]}

    Single-tenant is the 1-tenant special case — tenant 0 inherits the
    base egress key and an uncapped pool, so a 1-tenant {!run_single} is
    byte-identical to {!Runtime.run} on the same config.  The other
    capabilities each have one entry point of their own:
    {!Runtime.run_supervised} (crash recovery), {!Runner.run} (rate
    search) and [Sbt_fleet.Fleet.run] (multi-node). *)

type t

val create : ?registry:Sbt_obs.Metrics.t -> ?verify:bool -> Runtime.config -> t
(** A session with no tenants yet.  [registry] supplies the shared root registry
    (tenants scope themselves under [tenant<id>.*]); [verify] (default
    true) controls whether {!run} judges the tenants'
    audit sub-streams ({!Sbt_attest.Verifier.verify_tenants}). *)

val add_tenant :
  ?id:int -> ?quota_pages:int -> pipeline:Pipeline.t -> source:Sbt_net.Frame.t list -> t -> t
(** Admit a tenant.  [id] defaults to one past the highest admitted id
    (0 for the first); [quota_pages] caps the tenant's secure pool in
    4 KiB pages (omitted = uncapped). *)

val tenants : t -> Multi.tenant list
(** Admitted tenants, id-ascending. *)

val run : t -> Multi.result
(** Run all admitted tenants in one enclave — see {!Multi.run}.
    Raises [Invalid_argument] if no tenant was admitted. *)

val run_single : t -> Runtime.run_result
(** The single-tenant fast path: one recording, no merged-schedule
    replay, no verification — {!Runtime.run} under the tenant's config,
    byte-identical observables included.  Raises [Invalid_argument]
    unless exactly one tenant was admitted. *)
