(* One end-to-end run through the public API: the edge pipeline on the
   default [`Des 8] engine, then the cloud side (audit open + verify, then
   open every sealed window).  Each public call gets a host-wall span. *)

module Runtime = Sbt_core.Runtime
module Session = Sbt_core.Session
module D = Sbt_core.Dataplane
module Log = Sbt_attest.Log
module Verifier = Sbt_attest.Verifier
module Clock = Sbt_sim.Clock

type outcome = {
  cfg : Runtime.config;
  run : Runtime.run_result;
  records : Sbt_attest.Record.t list;
  report : Verifier.report;
  opened : (int * int32 array array option) list;
      (** per sealed window; [None] when it did not open and authenticate *)
  edge_s : float;  (** Session.create + add_tenant + run_single *)
  audit_open_s : float;  (** Log.open_batch over every batch *)
  verify_s : float;  (** Verifier.verify *)
  cloud_open_s : float;  (** Dataplane.open_result over every window *)
}

let seconds_since t0 = Clock.elapsed_ns ~since:t0 /. 1e9

let open_window ~egress_key (w, sealed) =
  (w, try Some (D.open_result ~egress_key sealed) with Invalid_argument _ -> None)

let run ?tracer (w : Workload.t) frames =
  let cfg = Runtime.Config.make ~version:w.Workload.version ?tracer () in
  let egress_key = cfg.Runtime.dp_config.D.egress_key in
  let pipeline = w.Workload.bench.Sbt_workloads.Benchmarks.pipeline in
  let t0 = Clock.now_ns () in
  let run =
    Session.create cfg |> Session.add_tenant ~pipeline ~source:frames |> Session.run_single
  in
  let edge_s = seconds_since t0 in
  let t1 = Clock.now_ns () in
  let records = List.concat_map (fun b -> Log.open_batch ~key:egress_key b) run.Runtime.audit in
  let audit_open_s = seconds_since t1 in
  let t2 = Clock.now_ns () in
  let report = Verifier.verify run.Runtime.verifier_spec records in
  let verify_s = seconds_since t2 in
  let t3 = Clock.now_ns () in
  let opened = List.map (open_window ~egress_key) run.Runtime.results in
  let cloud_open_s = seconds_since t3 in
  { cfg; run; records; report; opened; edge_s; audit_open_s; verify_s; cloud_open_s }

let failed_windows ~reference o =
  Oracle.failed_windows ~reference ~verdict_ok:(Verifier.ok o.report) o.opened
