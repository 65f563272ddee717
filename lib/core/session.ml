(* A Session is a run configuration plus the set of tenant pipelines
   admitted into the enclave.  Single-tenant is the 1-tenant special case
   (tenant 0 inherits the base egress key, so a 1-tenant Session run is
   byte-identical to Runtime.run on the same config). *)

type t = {
  cfg : Runtime.config;
  registry : Sbt_obs.Metrics.t option;
  verify : bool;
  tenants : Multi.tenant list; (* newest first *)
}

let create ?registry ?(verify = true) cfg = { cfg; registry; verify; tenants = [] }

let next_id tenants =
  List.fold_left (fun acc t -> max acc (t.Multi.id + 1)) 0 tenants

let add_tenant ?id ?quota_pages ~pipeline ~source t =
  let id = match id with Some i -> i | None -> next_id t.tenants in
  { t with tenants = { Multi.id; pipeline; source; quota_pages } :: t.tenants }

let tenants t = List.sort (fun a b -> compare a.Multi.id b.Multi.id) t.tenants

let run t =
  Multi.run ?registry:t.registry ~verify:t.verify t.cfg (tenants t)

let the_tenant t =
  match t.tenants with
  | [ tn ] -> tn
  | [] -> invalid_arg "Session: no tenant admitted"
  | _ -> invalid_arg "Session: expected exactly one tenant"

(* The single-tenant fast path: one recording, no merged-schedule
   replay, no verification. *)
let run_single t =
  let tn = the_tenant t in
  let owners : (int64, int) Hashtbl.t = Hashtbl.create 64 in
  let tcfg = Multi.tenant_config t.cfg ~owners tn in
  let registry =
    match t.registry with
    | Some root -> Some (Sbt_obs.Metrics.scoped root (Printf.sprintf "tenant%d" tn.Multi.id))
    | None -> None
  in
  Runtime.run ?registry tcfg tn.Multi.pipeline tn.Multi.source
