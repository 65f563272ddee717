(* Multi-tenant consolidation: N pipelines in one enclave.

   The paper's consolidation argument (§4) says the enclave should host
   the *whole* data plane — one TCB, minimal crossings — where
   per-stage-enclave designs (SecureStreams) pay a boundary per operator.
   A Session demonstrates the argument at its natural scale: many small
   tenant pipelines admitted into one TEE, isolated from each other by

   - page-granular secure-DRAM quotas (a tenant over budget sheds *its
     own* ingest, degrading with a signed Gap while its co-tenants run
     clean);
   - per-tenant opaque-ref namespaces (a confused control plane handing
     tenant B's ref to tenant A is rejected in-TEE,
     {!Dataplane.Cross_tenant_ref});
   - per-tenant KDF-derived egress/audit keys
     ({!Sbt_attest.Verifier.tenant_key}), so audit becomes independent
     per-tenant sub-streams and one tenant's violation cannot taint
     another's verdict ({!Sbt_attest.Verifier.verify_tenants});
   - deficit-round-robin interleaving of the recorded task graphs, so
     one heavy tenant cannot starve the p99 output delay of the rest.

   Determinism invariant: a tenant's sealed results, audit bytes and
   verdict depend only on its own spec (id, pipeline, source, quota) —
   never on who else shared the enclave.  Joint and solo runs are
   byte-identical per tenant; the merged schedule and all fairness
   numbers are measurement, downstream of the recordings.  Single-tenant
   is the 1-tenant special case (tenant 0 inherits the base egress key,
   so a 1-tenant run is byte-identical to Runtime.run on the same
   config). *)

module D = Dataplane

type tenant = {
  id : int;
  pipeline : Pipeline.t;
  source : Sbt_net.Frame.t list;
  quota_pages : int option;
}

type tenant_result = {
  tr_id : int;
  tr_run : Runtime.run_result;
  tr_delays : (int * float) list;
  tr_max_delay_ns : float;
  tr_mean_delay_ns : float;
}

type result = {
  tenants : tenant_result list;
  report : Sbt_attest.Verifier.tenants_report;
  makespan_ns : float;
  agg_events : int;
  agg_events_per_sec : float;
  p99_delay_ns : float;
  max_delay_ns : float;
  registry : Sbt_obs.Metrics.t;
}

type t = { cfg : Runtime.config; admitted : tenant list (* newest first *) }

let create cfg = { cfg; admitted = [] }

let add_tenant ?id ?quota_pages ~pipeline ~source t =
  let id =
    match id with
    | Some i -> i
    | None -> List.fold_left (fun acc tn -> max acc (tn.id + 1)) 0 t.admitted
  in
  { t with admitted = { id; pipeline; source; quota_pages } :: t.admitted }

let tenants t = List.sort (fun a b -> compare a.id b.id) t.admitted

(* Merged-trace window ids are [w + slot * window_stride] so the replay's
   per-window delays can be attributed back to tenants.  Purely a
   measurement encoding — recorded traces and observables never carry
   offset ids. *)
let window_stride = 1 lsl 20

let page_size = 4096

(* The tenant's view of the shared-enclave config: egress/audit key
   derived from the base key by tenant id, secure pool capped at the
   tenant's quota, opaque refs minted into (and guarded against)
   [owners].  Tenant 0 with no quota yields a config observably
   identical to the input. *)
let tenant_config (cfg : Runtime.config) ~owners t =
  let dpc = cfg.Runtime.dp_config in
  let dpc =
    {
      dpc with
      D.egress_key = Sbt_attest.Verifier.tenant_key ~base:dpc.D.egress_key t.id;
      pool_budget_bytes =
        (match t.quota_pages with
        | Some pages -> Some (pages * page_size)
        | None -> dpc.D.pool_budget_bytes);
      namespace = Some { D.ns_tenant = t.id; ns_owners = owners };
    }
  in
  { cfg with Runtime.dp_config = dpc }

(* Deficit round-robin merge: repeatedly hand the next task to the
   unfinished tenant with the least accumulated scheduled cost (ties to
   the lower slot), keeping each tenant's nodes in recording order so
   intra-tenant deps stay backward. *)
let merge_traces traces =
  let n = Array.length traces in
  let nodes = Array.map Sbt_sim.Trace.nodes traces in
  let total = Array.fold_left (fun acc ns -> acc + Array.length ns) 0 nodes in
  let pos = Array.make n 0 in
  let credit = Array.make n 0.0 in
  let remap = Array.map (fun ns -> Array.make (Array.length ns) (-1)) nodes in
  let out = ref [] in
  for merged_idx = 0 to total - 1 do
    let best = ref (-1) in
    for i = 0 to n - 1 do
      if pos.(i) < Array.length nodes.(i) && (!best < 0 || credit.(i) < credit.(!best)) then
        best := i
    done;
    let i = !best in
    let node = nodes.(i).(pos.(i)) in
    let deps = List.map (fun d -> remap.(i).(d)) node.Sbt_sim.Trace.deps in
    let role =
      match node.Sbt_sim.Trace.role with
      | Sbt_sim.Trace.Plain -> Sbt_sim.Trace.Plain
      | Sbt_sim.Trace.Watermark_arrival w ->
          Sbt_sim.Trace.Watermark_arrival (w + (i * window_stride))
      | Sbt_sim.Trace.Egress_of w -> Sbt_sim.Trace.Egress_of (w + (i * window_stride))
    in
    let label = Printf.sprintf "t%d:%s" i node.Sbt_sim.Trace.label in
    out := { node with Sbt_sim.Trace.deps; role; label } :: !out;
    remap.(i).(pos.(i)) <- merged_idx;
    pos.(i) <- pos.(i) + 1;
    credit.(i) <- credit.(i) +. node.Sbt_sim.Trace.cost_ns
  done;
  Sbt_sim.Trace.of_nodes (Array.of_list (List.rev !out))

let percentile p values =
  match values with
  | [] -> 0.0
  | _ ->
      let arr = Array.of_list values in
      Array.sort compare arr;
      let n = Array.length arr in
      let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
      arr.(max 0 (min (n - 1) (rank - 1)))

let validate tenants =
  if tenants = [] then invalid_arg "Session.run: no tenants admitted";
  let seen = Hashtbl.create 16 in
  List.iter
    (fun t ->
      if t.id < 0 then invalid_arg "Session.run: tenant ids must be non-negative";
      if Hashtbl.mem seen t.id then
        invalid_arg (Printf.sprintf "Session.run: duplicate tenant id %d" t.id);
      Hashtbl.replace seen t.id ();
      match t.quota_pages with
      | Some p when p <= 0 -> invalid_arg "Session.run: tenant quota must be positive"
      | _ -> ())
    tenants

let run t =
  let cfg = t.cfg in
  let tenants = tenants t in
  validate tenants;
  let root = Sbt_obs.Metrics.create () in
  (* The enclave-level ref-ownership map every tenant's plane shares. *)
  let owners : (int64, int) Hashtbl.t = Hashtbl.create 256 in
  (* Record each tenant serially — the recording pass is the one place
     the data plane's effects happen for real, and its observables must
     be a pure function of the tenant's own spec. *)
  let runs =
    List.map
      (fun t ->
        let tcfg = tenant_config cfg ~owners t in
        let treg = Sbt_obs.Metrics.scoped root (Printf.sprintf "tenant%d" t.id) in
        (t, Runtime.run ~registry:treg tcfg t.pipeline t.source))
      tenants
  in
  (* Fair interleaving of the recorded task graphs. *)
  let slots = Array.of_list (List.map snd runs) in
  let merged = merge_traces (Array.map (fun r -> r.Runtime.trace) slots) in
  let replay =
    Sbt_sim.Trace.replay merged ~cores:cfg.Runtime.cores ~rate_eps:Float.infinity
  in
  (* Attribute the merged schedule's per-window delays back to tenants. *)
  let slot_delays = Array.make (Array.length slots) [] in
  List.iter
    (fun (w, d) ->
      let slot = w / window_stride in
      if slot >= 0 && slot < Array.length slot_delays then
        slot_delays.(slot) <- (w mod window_stride, d) :: slot_delays.(slot))
    replay.Sbt_sim.Trace.delays;
  let tenant_results =
    List.mapi
      (fun slot (t, r) ->
        let delays = List.rev slot_delays.(slot) in
        let ds = List.map snd delays in
        {
          tr_id = t.id;
          tr_run = r;
          tr_delays = delays;
          tr_max_delay_ns = List.fold_left max 0.0 ds;
          tr_mean_delay_ns =
            (match ds with
            | [] -> 0.0
            | _ -> List.fold_left ( +. ) 0.0 ds /. float_of_int (List.length ds));
        })
      runs
  in
  (* Fleet-style totals over the shared root registry. *)
  let sum f = List.fold_left (fun acc (_, r) -> acc + f r) 0 runs in
  let add name v = Sbt_obs.Metrics.add (Sbt_obs.Metrics.counter root name) v in
  let agg_events = sum (fun r -> r.Runtime.total_events) in
  add "tenants.count" (List.length tenants);
  add "tenants.events" agg_events;
  add "tenants.windows" (sum (fun r -> List.length r.Runtime.results));
  add "tenants.sheds" (sum (fun r -> r.Runtime.dp_stats.D.sheds));
  add "tenants.gaps_declared" (sum (fun r -> Runtime.Loss.gaps_declared r.Runtime.loss));
  add "tenants.events_dropped" (sum (fun r -> Runtime.Loss.events_dropped r.Runtime.loss));
  (* Tenant-scoped attestation: judge each sub-stream independently. *)
  let report =
    Sbt_attest.Verifier.verify_tenants ~key:cfg.Runtime.dp_config.D.egress_key
      (List.map
         (fun (t, r) ->
           {
             Sbt_attest.Verifier.tenant = t.id;
             t_spec = r.Runtime.verifier_spec;
             t_audit = r.Runtime.audit;
           })
         runs)
  in
  let makespan_ns = replay.Sbt_sim.Trace.makespan_ns in
  let all_delays = List.concat_map (fun tr -> List.map snd tr.tr_delays) tenant_results in
  {
    tenants = tenant_results;
    report;
    makespan_ns;
    agg_events;
    agg_events_per_sec =
      (if makespan_ns > 0.0 then float_of_int agg_events /. (makespan_ns /. 1e9) else 0.0);
    p99_delay_ns = percentile 99.0 all_delays;
    max_delay_ns = List.fold_left max 0.0 all_delays;
    registry = root;
  }

(* The single-tenant fast path: one recording, no merged-schedule
   replay, no verification. *)
let run_single t =
  match t.admitted with
  | [ tn ] ->
      let owners : (int64, int) Hashtbl.t = Hashtbl.create 64 in
      Runtime.run (tenant_config t.cfg ~owners tn) tn.pipeline tn.source
  | [] -> invalid_arg "Session: no tenant admitted"
  | _ -> invalid_arg "Session: expected exactly one tenant"
