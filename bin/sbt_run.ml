(* sbt_run: run one of the paper's benchmark pipelines under a chosen
   engine version and report throughput, memory, and verification. *)

module B = Sbt_workloads.Benchmarks
module Runner = Sbt_core.Runner
module D = Sbt_core.Dataplane
module Fault = Sbt_fault.Fault
module Lossy = Sbt_net.Lossy

let version_of_string = function
  | "full" -> Ok D.Full
  | "clear" -> Ok D.Clear_ingress
  | "viaos" -> Ok D.Io_via_os
  | "insecure" -> Ok D.Insecure
  | s -> Error (`Msg (Printf.sprintf "unknown version %S (full|clear|viaos|insecure)" s))

let exec_of_string = function
  | "des" -> Ok None
  | s -> (
      match String.index_opt s ':' with
      | Some i when String.sub s 0 i = "domains" -> (
          match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
          | Some n when n > 0 -> Ok (Some n)
          | _ -> Error (`Msg (Printf.sprintf "bad domain count in %S" s)))
      | _ -> Error (`Msg (Printf.sprintf "unknown exec engine %S (des|domains:N)" s)))

let exec_mode_of_string = function
  | "paced" -> Ok `Paced
  | "spin" -> Ok `Spin
  | "work" -> Ok `Work
  | s -> Error (`Msg (Printf.sprintf "unknown exec mode %S (paced|spin|work)" s))

let exec_mode_name = function `Paced -> "paced" | `Spin -> "spin" | `Work -> "work"

let fuse_of_string = function
  | "on" -> Ok true
  | "off" -> Ok false
  | s -> Error (`Msg (Printf.sprintf "unknown fuse setting %S (on|off)" s))

let late_policy_of_string = function
  | "silent" -> Ok D.Silent
  | "drop" -> Ok D.Drop_declare
  | "retract" -> Ok D.Retract_reemit
  | s -> Error (`Msg (Printf.sprintf "unknown late policy %S (silent|drop|retract)" s))

(* A disordered source advertises the tightest heuristic watermark
   (zero disorder slack), so real lateness actually surfaces as late
   data for the declared policy to handle; at rate 0 the punctuated
   stream is byte-identical to the historical generator's. *)
let disordered_frames ~seed ~rate (spec : Sbt_workloads.Datagen.spec) =
  Sbt_workloads.Datagen.frames
    {
      spec with
      Sbt_workloads.Datagen.disorder = Fault.disorder_plan ~seed ~rate ();
      watermark = Sbt_workloads.Datagen.Heuristic 0;
    }

let session_pipeline session_gap (pipe : Sbt_core.Pipeline.t) =
  match session_gap with
  | Some g -> Sbt_core.Pipeline.with_session_gap pipe ~gap_ticks:g
  | None -> pipe

let run name version windows events_per_window batch cores_list target_ms hints fuse verbose
    frames_in audit_out trace_out exec_domains exec_mode deterministic exec_time_scale
    results_out disorder late_policy session_gap undeclared_late fault_seed =
  match B.by_name name with
  | None ->
      Printf.eprintf "unknown benchmark %S (topk|distinct|join|winsum|fps|filter|power|vitals)\n" name;
      exit 1
  | Some mk ->
      let module V = Sbt_attest.Verifier in
      let encrypted = match version with D.Full | D.Io_via_os -> true | _ -> false in
      let bench = mk ~windows ~events_per_window ~batch_events:batch ~encrypted () in
      let target = Option.value ~default:bench.B.target_delay_ms target_ms in
      let pipeline = session_pipeline session_gap bench.B.pipeline in
      let frames =
        match frames_in with
        | Some path -> Sbt_io.read_frames path
        | None ->
            if disorder > 0.0 then disordered_frames ~seed:fault_seed ~rate:disorder bench.B.spec
            else B.frames bench
      in
      let tracer =
        match trace_out with Some _ -> Some (Sbt_obs.Tracer.create ()) | None -> None
      in
      let outcome =
        try
          Runner.run ~cores_list ~target_delay_ms:target ~version ~hints_enabled:hints ~fuse
            ~late_policy ?tracer ~deterministic ?exec_domains ?exec_mode ?exec_time_scale
            pipeline frames
        with Invalid_argument msg ->
          Printf.eprintf "%s\n" msg;
          exit 1
      in
      (* --undeclared-late presents the log under a quote claiming the
         silent policy: the declaration the verifier trusts omits what
         the edge actually did, and the replay must flag the mismatch. *)
      let spec_out =
        if undeclared_late then { outcome.Runner.spec with V.late_policy = 0 }
        else outcome.Runner.spec
      in
      (match (trace_out, tracer) with
      | Some path, Some tr ->
          Sbt_obs.Chrome_trace.write_file tr ~path;
          Printf.printf "trace written to %s (%d events; load in Perfetto or chrome://tracing)\n"
            path (Sbt_obs.Tracer.event_count tr)
      | _ -> ());
      (match audit_out with
      | Some path ->
          Sbt_io.write_audit path spec_out outcome.Runner.audit;
          Printf.printf "audit log written to %s (verify with sbt_verify)\n" path
      | None -> ());
      (match results_out with
      | Some path ->
          (* the cloud-side merge: corrected windows carry their final
             (highest-generation) bytes, re-sealed under the canonical
             egress nonce — identical to [results] when nothing was
             corrected, byte-comparable against an in-order run *)
          Sbt_io.write_results path outcome.Runner.results_corrected;
          Printf.printf "sealed results written to %s\n" path
      | None -> ());
      if disorder > 0.0 || late_policy <> D.Silent || session_gap <> None then begin
        let r = outcome.Runner.verifier_report in
        Printf.printf
          "late data: %d drop(s) covering %d event(s) | %d correction(s) across %d window(s)\n"
          r.V.late_drops r.V.late_events r.V.corrections
          (List.length r.V.corrected_windows)
      end;
      Format.printf "%a" Runner.pp_outcome outcome;
      (match outcome.Runner.exec with
      | None -> ()
      | Some e ->
          let module E = Sbt_exec.Executor in
          let busy =
            Array.fold_left (fun a (d : E.domain_stats) -> a +. d.E.busy_ns) 0.0
              e.E.per_domain
          in
          Printf.printf
            "exec: %d domains | wall %.1f ms | %d tasks | %d chunks | %d steals | %d parks | busy/wall %.2f | scratch hw %d B\n"
            e.E.domains (e.E.wall_ns /. 1e6) e.E.tasks_executed e.E.chunks_executed
            (E.total_steals e) (E.total_parks e)
            (busy /. Float.max 1.0 e.E.wall_ns)
            e.E.scratch_high_water_bytes);
      if verbose then begin
        let s = outcome.Runner.dp_stats in
        Format.printf
          "compute %.1f ms | mem %.1f ms | crypto %.1f ms | ingest %.1f ms | %d switch pairs | %d invocations@."
          (s.D.compute_ns /. 1e6) (s.D.mem_ns /. 1e6) (s.D.crypto_ns /. 1e6)
          (s.D.ingest_ns /. 1e6) s.D.switch_pairs s.D.invocations;
        Format.printf "audit: %d records, raw %d B, compressed %d B@." outcome.Runner.audit_records
          outcome.Runner.audit_raw_bytes outcome.Runner.audit_compressed_bytes;
        Format.printf "verifier: %a" Sbt_attest.Verifier.pp_report outcome.Runner.verifier_report
      end;
      let stripped_ok =
        if not undeclared_late then true
        else begin
          let key = (D.default_config ~version ()).D.egress_key in
          let records =
            List.concat_map
              (fun b -> Sbt_attest.Log.open_batch ~key b)
              outcome.Runner.audit
          in
          let r = Sbt_attest.Verifier.verify spec_out records in
          Printf.printf "undeclared-late check: %d violation(s) under the stripped declaration\n"
            (List.length r.Sbt_attest.Verifier.violations);
          Sbt_attest.Verifier.ok r
        end
      in
      if not (outcome.Runner.verified && stripped_ok) then exit 2

(* --- crash/recovery --------------------------------------------------------

   Run under the crash-recovery supervisor: sealed TEE checkpoints every
   [ckpt_every] closed windows, source-side frame replay, and — with
   --crash-at N — a deterministic injected crash after N executed tasks.
   With --recover the supervisor restarts from the latest sealed
   checkpoint and the multi-epoch verifier must accept the stitched log;
   without it the crash is fatal (exit 3), which is what the CI smoke
   uses to prove the crash actually fired. *)
let recovery name version windows events_per_window batch ckpt_every max_restarts crash_at
    crash_site recover deterministic verbose audit_out results_out =
  match B.by_name name with
  | None ->
      Printf.eprintf "unknown benchmark %S (topk|distinct|join|winsum|fps|filter|power|vitals)\n" name;
      exit 1
  | Some mk ->
      let module Runtime = Sbt_core.Runtime in
      let module V = Sbt_attest.Verifier in
      let encrypted = match version with D.Full | D.Io_via_os -> true | _ -> false in
      let bench = mk ~windows ~events_per_window ~batch_events:batch ~encrypted () in
      let fault_plan =
        match crash_at with
        | None -> Fault.none
        | Some n -> Fault.with_crash Fault.none ~site:crash_site ~after_tasks:n
      in
      let cost =
        if deterministic then
          let base =
            match version with
            | D.Insecure -> Sbt_tz.Cost_model.free
            | D.Full | D.Clear_ingress | D.Io_via_os -> Sbt_tz.Cost_model.default
          in
          Some { base with Sbt_tz.Cost_model.host_scale = 0.0 }
        else None
      in
      let cfg = Runtime.Config.make ~version ?cost ~fault_plan () in
      let frames = B.frames bench in
      let spec = Sbt_core.Pipeline.verifier_spec bench.B.pipeline in
      if not recover then (
        (* Crash armed but no supervisor: the run dies where the crash
           fires, keeping only what the normal world already held. *)
        match Runtime.run cfg bench.B.pipeline frames with
        | outcome ->
            Printf.printf "run completed (%d results) — crash point beyond the run\n"
              (List.length outcome.Runtime.results);
            if crash_at <> None then exit 3
        | exception Runtime.Crashed { site; uploads; results } ->
            Printf.printf
              "crashed at %s: %d audit batches and %d sealed results durable, in-TEE state lost \
               (re-run with --recover)\n"
              (Fault.site_name site) (List.length uploads) (List.length results);
            exit 3)
      else begin
        let s = Runtime.run_supervised ~max_restarts ~ckpt_every cfg bench.B.pipeline frames in
        Printf.printf
          "recovery: %d epoch(s), %d crash(es)%s | %d checkpoint(s), %d sealed B | %d frame(s) \
           replayed\n"
          s.Runtime.sv_epoch_count
          (List.length s.Runtime.sv_crash_sites)
          (match s.Runtime.sv_crash_sites with
          | [] -> ""
          | sites -> " [" ^ String.concat ", " (List.map Fault.site_name sites) ^ "]")
          s.Runtime.sv_checkpoints s.Runtime.sv_checkpoint_bytes s.Runtime.sv_replayed_frames;
        (match audit_out with
        | Some path ->
            Sbt_io.write_audit path spec s.Runtime.sv_audit;
            Printf.printf "stitched audit log written to %s\n" path
        | None -> ());
        (match results_out with
        | Some path ->
            Sbt_io.write_results path s.Runtime.sv_results;
            Printf.printf "sealed results written to %s\n" path
        | None -> ());
        let r = s.Runtime.sv_report in
        if verbose then Format.printf "verifier: %a" V.pp_report r
        else
          Printf.printf "verifier: %s (%d windows, %d violations)\n"
            (if V.ok r then "ok" else "VIOLATIONS")
            r.V.windows_verified (List.length r.V.violations);
        if not (V.ok r) then exit 2
      end

(* --- resilience scenario ---------------------------------------------------

   Sweep fault rates over one benchmark: authenticated frames cross a lossy
   link, the data plane sheds and retries under injected SMC/pool faults,
   and the cloud verifier replays the (possibly uplink-truncated) audit log.
   Reports goodput and whether loss surfaced as declared degradation
   (verified) or as violations (tamper evidence). *)
let resilience name version windows events_per_window batch fault_rates fault_seed =
  match B.by_name name with
  | None ->
      Printf.eprintf "unknown benchmark %S (topk|distinct|join|winsum|fps|filter|power|vitals)\n" name;
      exit 1
  | Some mk ->
      let encrypted = match version with D.Full | D.Io_via_os -> true | _ -> false in
      let bench = mk ~windows ~events_per_window ~batch_events:batch ~encrypted () in
      let spec = { bench.B.spec with Sbt_workloads.Datagen.authenticated = true } in
      let total_events = Sbt_workloads.Datagen.total_events spec in
      let clean_frames = Sbt_workloads.Datagen.frames spec in
      Printf.printf "resilience: %s / %s, %d events, seed %Ld\n" bench.B.name
        (D.version_name version) total_events fault_seed;
      Printf.printf "%-6s %-28s %-9s %-5s %-7s %-7s %-10s %s\n" "rate" "link(del/drop/corr)" "goodput"
        "gaps" "shed" "busy" "verified" "uplink-drop";
      let all_verified = ref true in
      List.iter
        (fun rate ->
          let plan = Fault.uniform ~seed:fault_seed ~rate () in
          let frames, link = Lossy.apply plan clean_frames in
          let outcome = Runner.run ~version ~fault_plan:plan bench.B.pipeline frames in
          (* Events that survived the link AND were ingested, over events the
             source generated: frames the link ate never reach the control
             plane, so they are missing from [total_events] already. *)
          let goodput =
            float_of_int
              (outcome.Runner.total_events
              - Sbt_core.Runtime.Loss.events_dropped outcome.Runner.loss)
            /. float_of_int (max 1 total_events)
          in
          (* The uplink leg: drop whole signed batches and replay what is
             left - the verifier must notice the hole. *)
          let kept =
            List.filter
              (fun (b : Sbt_attest.Log.batch) -> not (Fault.uplink_drops plan ~seq:b.Sbt_attest.Log.seq))
              outcome.Runner.audit
          in
          let egress_key = (D.default_config ~version ()).D.egress_key in
          let uplink_verdict =
            if List.length kept = List.length outcome.Runner.audit then "none"
            else
              let records =
                List.concat_map (fun b -> Sbt_attest.Log.open_batch ~key:egress_key b) kept
              in
              let r = Sbt_attest.Verifier.verify outcome.Runner.spec records in
              Printf.sprintf "%d batches lost -> %d violations"
                (List.length outcome.Runner.audit - List.length kept)
                (List.length r.Sbt_attest.Verifier.violations)
          in
          if not outcome.Runner.verified then all_verified := false;
          Printf.printf "%-6.2f %-28s %-9.3f %-5d %-7d %-7d %-10b %s\n" rate
            (Printf.sprintf "%d/%d/%d" link.Lossy.delivered link.Lossy.dropped link.Lossy.corrupted)
            goodput
            (Sbt_core.Runtime.Loss.gaps_declared outcome.Runner.loss)
            outcome.Runner.dp_stats.D.sheds
            outcome.Runner.dp_stats.D.smc_busy_rejections outcome.Runner.verified uplink_verdict)
        fault_rates;
      (* Loss must surface as declared degradation, never as tamper
         evidence: any rate whose replay raised violations fails the
         sweep (previously this path always exited 0). *)
      if not !all_verified then exit 2

(* --- fleet under churn ------------------------------------------------------

   Drive M simulated edge nodes over one key-partitioned workload with a
   deterministic churn scenario: --kill halts an edge at a checkpoint
   boundary (transient crashes reboot in place; permanent ones are
   declared dead after --suspect-after missed beats and their key range
   is handed off to a survivor under a signed manifest), --uplink-down
   silences heartbeats without stopping work, --straggle slows a node.
   The merged egress of a churned fleet is byte-identical to the
   un-churned run (cmp the --results-out files).  Exit 2 = the fleet
   verifier found violations, exit 3 = a death found no survivor. *)
let fleet name version windows events_per_window batch m partition_by kills uplinks stragglers
    suspect_after recover_after rogue omit_manifests ckpt_every deterministic verbose audit_out
    results_out =
  match B.by_name name with
  | None ->
      Printf.eprintf "unknown benchmark %S (topk|distinct|join|winsum|fps|filter|power|vitals)\n" name;
      exit 1
  | Some mk ->
      let module Runtime = Sbt_core.Runtime in
      let module V = Sbt_attest.Verifier in
      let module Fleet = Sbt_fleet.Fleet in
      if partition_by <> "key" then begin
        Printf.eprintf "unsupported --partition-by %S (only: key)\n" partition_by;
        exit 1
      end;
      (* partitioning happens at the source, before wire protection *)
      let bench = mk ~windows ~events_per_window ~batch_events:batch ~encrypted:false () in
      let cost =
        if deterministic then
          let base =
            match version with
            | D.Insecure -> Sbt_tz.Cost_model.free
            | D.Full | D.Clear_ingress | D.Io_via_os -> Sbt_tz.Cost_model.default
          in
          Some { base with Sbt_tz.Cost_model.host_scale = 0.0 }
        else None
      in
      let cfg = Sbt_core.Runtime.Config.make ~version ?cost () in
      let events =
        List.map (fun (node, at_beat, permanent) -> Fault.Kill { node; at_beat; permanent }) kills
        @ List.map (fun (node, at_beat, beats) -> Fault.Uplink_partition { node; at_beat; beats })
            uplinks
        @ List.map (fun (node, factor) -> Fault.Straggle { node; factor }) stragglers
      in
      let scenario =
        try Fault.fleet_scenario ~recover_after ~suspect_after events
        with Invalid_argument msg ->
          Printf.eprintf "bad churn scenario: %s\n" msg;
          exit 1
      in
      let frames = B.frames bench in
      match
        Fleet.run ~ckpt_every ~rogue_handoff:rogue ~scenario ~nodes:m ~batch_events:batch cfg
          bench.B.pipeline frames
      with
      | exception Fleet.No_survivor { partition; beat } ->
          Printf.eprintf
            "partition %d lost its edge at beat %d and no eligible survivor remains\n" partition
            beat;
          exit 3
      | s ->
          let throughput =
            float_of_int s.Fleet.total_events /. Float.max 1e-9 (s.Fleet.makespan_ns /. 1e9)
          in
          Printf.printf
            "fleet: %d edges | %d windows x %d partitions | %d events | makespan %.2f ms | %.0f events/s\n"
            s.Fleet.nodes s.Fleet.windows s.Fleet.nodes s.Fleet.total_events
            (s.Fleet.makespan_ns /. 1e6) throughput;
          Printf.printf
            "churn: %d death(s), %d handoff(s) sealed, %d suspicion(s) raised / %d cleared, %d \
             fenced heartbeat(s), %d frame(s) re-ingested\n"
            s.Fleet.deaths
            (List.length s.Fleet.handoffs)
            s.Fleet.suspicions_raised s.Fleet.suspicions_cleared s.Fleet.fenced_heartbeats
            s.Fleet.replayed_frames;
          List.iter
            (fun ((mh : Sbt_attest.Handoff.manifest), _) ->
              Printf.printf
                "handoff: partition %d, edge %d (epoch %d) -> edge %d, resume ckpt %d / cursor %d\n"
                mh.Sbt_attest.Handoff.partition mh.Sbt_attest.Handoff.donor
                mh.Sbt_attest.Handoff.donor_epoch mh.Sbt_attest.Handoff.recipient
                mh.Sbt_attest.Handoff.resume_ckpt mh.Sbt_attest.Handoff.resume_cursor)
            s.Fleet.handoffs;
          (* durable outputs land before the verdict decides the exit code *)
          (match audit_out with
          | Some path ->
              let manifests =
                if omit_manifests then [] else List.map snd s.Fleet.handoffs
              in
              Sbt_io.write_fleet_audit path
                (Sbt_core.Pipeline.verifier_spec bench.B.pipeline)
                ~partitions:s.Fleet.nodes ~windows:s.Fleet.windows s.Fleet.edges manifests;
              Printf.printf "fleet audit bundle written to %s%s (verify with sbt_verify)\n" path
                (if omit_manifests && s.Fleet.handoffs <> [] then
                   Printf.sprintf " with %d handoff manifest(s) DELIBERATELY OMITTED"
                     (List.length s.Fleet.handoffs)
                 else "")
          | None -> ());
          (match results_out with
          | Some path ->
              Sbt_io.write_results path
                (List.map (fun (_, p, sr) -> (p, sr)) s.Fleet.merged);
              Printf.printf "merged sealed results written to %s\n" path
          | None -> ());
          let r = s.Fleet.report in
          if verbose then Format.printf "fleet verifier: %a" V.pp_fleet_report r
          else
            Printf.printf "fleet verifier: %s (%d/%d partitions, %d handoff(s) verified)\n"
              (if V.fleet_ok r then "ok" else "VIOLATIONS")
              r.V.partitions_present r.V.partitions_expected r.V.handoffs_verified;
          if not (V.fleet_ok r) then exit 2

(* --- multi-tenant enclave ---------------------------------------------------

   Admit N tenant pipelines into one enclave through the Session API:
   per-tenant page quotas (an over-budget tenant sheds and degrades
   alone), per-tenant opaque-ref namespaces, DRR-fair scheduling, and
   per-tenant audit sub-streams judged independently.  --solo-tenant I
   runs tenant I of the same N-tenant spec alone; its per-tenant output
   files are byte-identical to the joint run's (the CI cmp smoke).
   Exit 2 when any tenant's verdict is not clean (violations or
   declared degradation). *)
let tenants_run name version windows events_per_window batch n mix_name quotas solo hints fuse
    exec_domains exec_mode deterministic exec_time_scale disorder late_policy session_gap
    fault_seed verbose audit_out results_out =
  let module Session = Sbt_core.Session in
  let module Multi = Sbt_core.Multi in
  let module Runtime = Sbt_core.Runtime in
  let module V = Sbt_attest.Verifier in
  if n < 1 then begin
    Printf.eprintf "--tenants must be >= 1\n";
    exit 1
  end;
  let encrypted = match version with D.Full | D.Io_via_os -> true | _ -> false in
  let workload i =
    match mix_name with
    | Some m -> (
        match B.mix ~windows ~events_per_window ~batch_events:batch ~encrypted m i with
        | Some b -> b
        | None ->
            Printf.eprintf "unknown tenant mix %S (%s)\n" m (String.concat "|" B.mix_names);
            exit 1)
    | None -> (
        match B.by_name name with
        | Some mk -> mk ~windows ~events_per_window ~batch_events:batch ~encrypted ()
        | None ->
            Printf.eprintf "unknown benchmark %S (topk|distinct|join|winsum|fps|filter|power|vitals)\n"
              name;
            exit 1)
  in
  let quota_for id =
    let pick sel = List.filter_map (fun (s, p) -> if s = sel then Some p else None) quotas in
    match (List.rev (pick (Some id)), List.rev (pick None)) with
    | p :: _, _ -> Some p
    | [], p :: _ -> Some p
    | [], [] -> None
  in
  let cost =
    if deterministic then
      let base =
        match version with
        | D.Insecure -> Sbt_tz.Cost_model.free
        | D.Full | D.Clear_ingress | D.Io_via_os -> Sbt_tz.Cost_model.default
      in
      Some { base with Sbt_tz.Cost_model.host_scale = 0.0 }
    else None
  in
  let cfg = Runtime.Config.make ~version ?cost ~hints_enabled:hints ~fuse ~late_policy () in
  let engine =
    match exec_domains with Some d -> `Domains d | None -> `Des cfg.Runtime.cores
  in
  let ids =
    match solo with
    | None -> List.init n (fun i -> i)
    | Some i when i >= 0 && i < n -> [ i ]
    | Some i ->
        Printf.eprintf "--solo-tenant %d outside 0..%d\n" i (n - 1);
        exit 1
  in
  let source (b : B.t) =
    if disorder > 0.0 then disordered_frames ~seed:fault_seed ~rate:disorder b.B.spec
    else B.frames b
  in
  let session =
    List.fold_left
      (fun s i ->
        let b = workload i in
        Session.add_tenant ~id:i ?quota_pages:(quota_for i)
          ~pipeline:(session_pipeline session_gap b.B.pipeline)
          ~source:(source b) s)
      (Session.create ~engine ?exec_mode ?exec_time_scale cfg)
      ids
  in
  let res =
    try Session.run session
    with Invalid_argument msg ->
      Printf.eprintf "%s\n" msg;
      exit 1
  in
  Printf.printf
    "tenants: %d in one enclave | %d events | agg %.2f Mev/s | p99 delay %.2f ms | max %.2f ms\n"
    (List.length res.Multi.tenants) res.Multi.agg_events
    (res.Multi.agg_events_per_sec /. 1e6)
    (res.Multi.p99_delay_ns /. 1e6)
    (res.Multi.max_delay_ns /. 1e6);
  if verbose then
    List.iter
      (fun tr ->
        let s = tr.Multi.tr_run.Runtime.dp_stats in
        Printf.printf
          "tenant %d: %d events | %d window(s) | %d shed(s) | mean delay %.2f ms | max %.2f ms\n"
          tr.Multi.tr_id tr.Multi.tr_run.Runtime.total_events
          (List.length tr.Multi.tr_run.Runtime.results)
          s.D.sheds
          (tr.Multi.tr_mean_delay_ns /. 1e6)
          (tr.Multi.tr_max_delay_ns /. 1e6))
      res.Multi.tenants;
  (* durable per-tenant outputs: <path>.t<id>, byte-comparable with a
     --solo-tenant run of the same spec *)
  (match results_out with
  | Some path ->
      List.iter
        (fun tr ->
          Sbt_io.write_results
            (Printf.sprintf "%s.t%d" path tr.Multi.tr_id)
            tr.Multi.tr_run.Runtime.results)
        res.Multi.tenants;
      Printf.printf "sealed results written to %s.t<ID> (one file per tenant)\n" path
  | None -> ());
  (match audit_out with
  | Some path ->
      List.iter
        (fun tr ->
          Sbt_io.write_audit
            (Printf.sprintf "%s.t%d" path tr.Multi.tr_id)
            tr.Multi.tr_run.Runtime.verifier_spec tr.Multi.tr_run.Runtime.audit)
        res.Multi.tenants;
      Printf.printf "audit sub-streams written to %s.t<ID> (one file per tenant)\n" path
  | None -> ());
  (match res.Multi.exec with
  | None -> ()
  | Some e ->
      let module E = Sbt_exec.Executor in
      Printf.printf "exec: %d domains | wall %.1f ms | %d tasks (merged fair schedule)\n"
        e.E.domains (e.E.wall_ns /. 1e6) e.E.tasks_executed);
  match res.Multi.report with
  | None -> ()
  | Some report ->
      Format.printf "%a" V.pp_tenants_report report;
      if not (V.tenants_ok report) || report.V.tenants_degraded > 0 then exit 2

open Cmdliner

let name_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"BENCHMARK" ~doc:"topk, distinct, join, winsum, fps, filter or power")

let version_arg =
  let version_conv =
    Arg.conv
      ( version_of_string,
        fun fmt v -> Format.pp_print_string fmt (D.version_name v) )
      ~docv:"VERSION"
  in
  Arg.(value & opt version_conv D.Full & info [ "version"; "v" ] ~doc:"Engine version: full, clear, viaos or insecure")

let windows_arg = Arg.(value & opt int 4 & info [ "windows"; "w" ] ~doc:"Number of 1-second windows")

let epw_arg =
  Arg.(value & opt int 100_000 & info [ "events-per-window"; "e" ] ~doc:"Events per window")

let batch_arg = Arg.(value & opt int 10_000 & info [ "batch"; "b" ] ~doc:"Events per input batch")

let cores_arg =
  Arg.(value & opt (list int) [ 2; 4; 8 ] & info [ "cores"; "c" ] ~doc:"Core counts to evaluate")

let target_arg =
  Arg.(value & opt (some float) None & info [ "target-ms" ] ~doc:"Output-delay target (default: paper's per-benchmark target)")

let hints_arg =
  Arg.(value & opt bool true & info [ "hints" ] ~doc:"Enable consumption hints")

let fuse_arg =
  let fuse_conv =
    Arg.conv
      (fuse_of_string, fun fmt b -> Format.pp_print_string fmt (if b then "on" else "off"))
      ~docv:"on|off"
  in
  Arg.(
    value & opt fuse_conv false
    & info [ "fuse" ]
        ~doc:
          "Operator fusion: $(b,on) runs each maximal chain of adjacent per-record \
           batch stages (Filter/Project/Select/ShiftKey) as one fused super-kernel — \
           one world switch and one composite audit record per chain instead of one \
           per stage.  Sealed results, verifier verdicts and loss are byte-identical \
           to $(b,off); compare switch counts with --verbose")

let verbose_arg = Arg.(value & flag & info [ "verbose" ] ~doc:"Print data-plane statistics")

let frames_arg =
  Arg.(value & opt (some file) None & info [ "frames" ] ~doc:"Read the source stream from a file written by sbt_datagen")

let audit_arg =
  Arg.(value & opt (some string) None & info [ "audit-out" ] ~doc:"Write the signed audit log to a file for sbt_verify")

let trace_arg =
  Arg.(value & opt (some string) None & info [ "trace" ] ~doc:"Write a Chrome trace_event JSON of the recording run (virtual-time spans; open in Perfetto)")

let exec_arg =
  let exec_conv =
    Arg.conv
      ( exec_of_string,
        fun fmt -> function
          | None -> Format.pp_print_string fmt "des"
          | Some n -> Format.fprintf fmt "domains:%d" n )
      ~docv:"ENGINE"
  in
  Arg.(
    value & opt exec_conv None
    & info [ "exec" ]
        ~doc:
          "Execution engine: $(b,des) (discrete-event, the default) or \
           $(b,domains:N) (record under the DES, then measure the recorded task \
           graph on N real domains with the work-stealing executor; observable \
           outputs are byte-identical to des)")

let exec_mode_arg =
  let mode_conv =
    Arg.conv
      (exec_mode_of_string, fun fmt m -> Format.pp_print_string fmt (exec_mode_name m))
      ~docv:"MODE"
  in
  Arg.(
    value & opt (some mode_conv) None
    & info [ "exec-mode" ]
        ~doc:
          "Kernel mode for the domains:N measurement phase: $(b,paced) (default; \
           tasks occupy wall time equal to their recorded cost), $(b,spin) \
           (calibrated busy work), or $(b,work) (tasks re-execute the recorded \
           real primitive kernels data-parallel via Par_kernel — the recording \
           captures kernel inputs, and observable outputs stay byte-identical)")

let deterministic_arg =
  Arg.(
    value & flag
    & info [ "deterministic" ]
        ~doc:
          "Zero the cost model's host_scale so recorded costs carry no measured \
           host time: results, audit bytes and verdicts become byte-reproducible \
           across runs and processes")

let exec_time_scale_arg =
  Arg.(
    value & opt (some float) None
    & info [ "exec-time-scale" ]
        ~doc:"Multiply recorded task costs by this factor in the domains:N \
              measurement phase (shrinks long recordings to a quick wall run)")

let results_out_arg =
  Arg.(
    value & opt (some string) None
    & info [ "results-out" ]
        ~doc:"Write the sealed per-window results to a file (byte-comparable \
              across engines with cmp)")

let resilience_arg =
  Arg.(value & flag & info [ "resilience" ] ~doc:"Fault-rate sweep: lossy link, transient SMC refusals, pool pressure and uplink loss, reporting goodput and verification per rate")

let fault_rates_arg =
  Arg.(value & opt (list float) [ 0.0; 0.01; 0.05; 0.1; 0.2 ] & info [ "fault-rates" ] ~doc:"Fault rates to sweep with --resilience")

let fault_seed_arg =
  Arg.(value & opt int64 42L & info [ "fault-seed" ] ~doc:"Seed of the deterministic fault plan (same seed, same faults)")

let ckpt_every_arg =
  Arg.(
    value & opt int 1
    & info [ "ckpt-every" ]
        ~doc:"Sealed-checkpoint interval in closed windows for --recover / --crash-at runs")

let max_restarts_arg =
  Arg.(
    value & opt int 3
    & info [ "max-restarts" ] ~doc:"Supervisor restart budget before a crash becomes fatal")

let crash_at_arg =
  Arg.(
    value & opt (some int) None
    & info [ "crash-at" ]
        ~doc:
          "Inject a crash after $(docv) executed tasks: in-TEE state is lost and only \
           normal-world durable state (sealed checkpoints, uploaded audit batches, egressed \
           results) survives.  Fatal (exit 3) unless --recover supervises the run"
        ~docv:"N")

let crash_site_arg =
  let site_conv =
    Arg.conv
      ( (function
        | "control" -> Ok Fault.Crash_control
        | "reboot" -> Ok Fault.Crash_reboot
        | s -> Error (`Msg (Printf.sprintf "unknown crash site %S (control|reboot)" s))),
        fun fmt s -> Format.pp_print_string fmt (Fault.site_name s) )
      ~docv:"SITE"
  in
  Arg.(
    value & opt site_conv Fault.Crash_control
    & info [ "crash-site" ]
        ~doc:"Where --crash-at fires: $(b,control) (mid-task, control plane) or $(b,reboot) \
              (at a checkpoint boundary, after the blob is durable)")

let recover_arg =
  Arg.(
    value & flag
    & info [ "recover" ]
        ~doc:
          "Supervise the run: seal TEE checkpoints every --ckpt-every closed windows, and on \
           a crash restart from the latest valid checkpoint, replay the unacknowledged frame \
           suffix, and verify the stitched multi-epoch audit log (exit 2 on any violation)")

(* --- fleet arguments -------------------------------------------------------- *)

let fleet_arg =
  Arg.(
    value & opt int 0
    & info [ "fleet" ]
        ~doc:
          "Run $(docv) simulated edge nodes over the workload key-partitioned $(docv) ways, \
           merge their egress cloud-side, and judge the fleet with the fleet-scope verifier \
           (exit 2 on violations, exit 3 if a death finds no survivor)"
        ~docv:"M")

let partition_by_arg =
  Arg.(
    value & opt string "key"
    & info [ "partition-by" ] ~doc:"Partitioning dimension for --fleet (only: $(b,key))")

let kill_conv =
  let parse s =
    let fail () =
      Error (`Msg (Printf.sprintf "bad kill %S (expected NODE@BEAT or NODE@BEAT:permanent)" s))
    in
    match String.split_on_char '@' s with
    | [ n; rest ] -> (
        let node = int_of_string_opt n in
        match (node, String.split_on_char ':' rest) with
        | Some node, [ b ] -> (
            match int_of_string_opt b with
            | Some at_beat -> Ok (node, at_beat, false)
            | None -> fail ())
        | Some node, [ b; "permanent" ] -> (
            match int_of_string_opt b with
            | Some at_beat -> Ok (node, at_beat, true)
            | None -> fail ())
        | _ -> fail ())
    | _ -> fail ()
  in
  let print fmt (n, b, p) =
    Format.fprintf fmt "%d@%d%s" n b (if p then ":permanent" else "")
  in
  Arg.conv (parse, print) ~docv:"NODE@BEAT[:permanent]"

let kills_arg =
  Arg.(
    value & opt_all kill_conv []
    & info [ "kill" ]
        ~doc:
          "Kill edge NODE after it closes window BEAT (repeatable).  The checkpoint for that \
           beat is durable; in-TEE state is lost.  Transient kills reboot --recover-after \
           beats later; $(b,:permanent) kills are declared dead after --suspect-after missed \
           beats and the node's key range is handed off to a survivor under a signed manifest")

let uplink_conv =
  let parse s =
    match String.split_on_char '@' s with
    | [ n; rest ] -> (
        match (int_of_string_opt n, String.split_on_char ':' rest) with
        | Some node, [ b; d ] -> (
            match (int_of_string_opt b, int_of_string_opt d) with
            | Some at_beat, Some beats -> Ok (node, at_beat, beats)
            | _ -> Error (`Msg (Printf.sprintf "bad uplink outage %S" s)))
        | _ -> Error (`Msg (Printf.sprintf "bad uplink outage %S (expected NODE@BEAT:BEATS)" s)))
    | _ -> Error (`Msg (Printf.sprintf "bad uplink outage %S (expected NODE@BEAT:BEATS)" s))
  in
  let print fmt (n, b, d) = Format.fprintf fmt "%d@%d:%d" n b d in
  Arg.conv (parse, print) ~docv:"NODE@BEAT:BEATS"

let uplinks_arg =
  Arg.(
    value & opt_all uplink_conv []
    & info [ "uplink-down" ]
        ~doc:
          "Silence edge NODE's heartbeats for BEATS beats starting at BEAT (repeatable); the \
           node keeps working and reconnects with backoff.  Long enough outages are declared \
           deaths")

let straggle_conv =
  let parse s =
    match String.split_on_char ':' s with
    | [ n; f ] -> (
        match (int_of_string_opt n, float_of_string_opt f) with
        | Some node, Some factor when factor >= 1.0 -> Ok (node, factor)
        | _ -> Error (`Msg (Printf.sprintf "bad straggler %S (expected NODE:FACTOR>=1)" s)))
    | _ -> Error (`Msg (Printf.sprintf "bad straggler %S (expected NODE:FACTOR)" s))
  in
  let print fmt (n, f) = Format.fprintf fmt "%d:%g" n f in
  Arg.conv (parse, print) ~docv:"NODE:FACTOR"

let stragglers_arg =
  Arg.(
    value & opt_all straggle_conv []
    & info [ "straggle" ]
        ~doc:
          "Run edge NODE FACTOR times slower (repeatable); a straggler too slow for \
           --suspect-after is declared dead and handed off")

let suspect_after_arg =
  Arg.(
    value & opt int 2
    & info [ "suspect-after" ]
        ~doc:"Missed beats before the failure detector declares an edge dead")

let recover_after_arg =
  Arg.(
    value & opt int 1
    & info [ "recover-after" ] ~doc:"Beats a transiently-killed edge stays down before rebooting")

let rogue_arg =
  Arg.(
    value & flag
    & info [ "rogue-handoff" ]
        ~doc:
          "Adversarial failover demo: the survivor re-runs the dead edge's partition from \
           scratch and discards the handoff manifest — the fleet verifier must flag the \
           unattested handoff and the cross-edge duplicates (exit 2)")

let omit_manifests_arg =
  Arg.(
    value & flag
    & info [ "omit-handoff-manifests" ]
        ~doc:
          "Strip the sealed handoff manifests from the --audit-out bundle (the run itself \
           is honest) — sbt_verify must then refuse the cross-edge stitch (exit 2)")

(* --- multi-tenant arguments ------------------------------------------------- *)

let tenants_arg =
  Arg.(
    value & opt int 0
    & info [ "tenants" ]
        ~doc:
          "Admit $(docv) tenant pipelines into one enclave behind the Session API: \
           per-tenant page quotas, per-tenant opaque-ref namespaces, deficit-round-robin \
           fair scheduling and per-tenant audit sub-streams judged independently (exit 2 \
           if any tenant's verdict is not clean)"
        ~docv:"N")

let tenant_quota_conv =
  let parse s =
    let fail () =
      Error (`Msg (Printf.sprintf "bad tenant quota %S (expected PAGES or ID:PAGES)" s))
    in
    match String.split_on_char ':' s with
    | [ p ] -> (
        match int_of_string_opt p with
        | Some pages when pages > 0 -> Ok (None, pages)
        | _ -> fail ())
    | [ i; p ] -> (
        match (int_of_string_opt i, int_of_string_opt p) with
        | Some id, Some pages when id >= 0 && pages > 0 -> Ok (Some id, pages)
        | _ -> fail ())
    | _ -> fail ()
  in
  let print fmt (sel, p) =
    match sel with
    | None -> Format.pp_print_int fmt p
    | Some i -> Format.fprintf fmt "%d:%d" i p
  in
  Arg.conv (parse, print) ~docv:"[ID:]PAGES"

let tenant_quota_arg =
  Arg.(
    value & opt_all tenant_quota_conv []
    & info [ "tenant-quota" ]
        ~doc:
          "Secure-DRAM quota in 4 KiB pages, for every tenant ($(b,PAGES)) or one tenant \
           ($(b,ID:PAGES)); repeatable, the most specific (and latest) spec wins.  An \
           over-budget tenant sheds and degrades alone — co-tenants stay clean")

let tenant_mix_arg =
  Arg.(
    value & opt (some string) None
    & info [ "tenant-mix" ]
        ~doc:
          "Assign tenant workloads round-robin from a named family ($(b,taxi)|$(b,power)|\
           $(b,mixed)) instead of running every tenant on the positional BENCHMARK")

let solo_tenant_arg =
  Arg.(
    value & opt (some int) None
    & info [ "solo-tenant" ]
        ~doc:
          "Run only tenant $(docv) of the --tenants spec, alone in the enclave; its \
           per-tenant output files are byte-identical to the joint run's (cmp them)"
        ~docv:"I")

(* --- disorder / late-data arguments ------------------------------------------ *)

let disorder_arg =
  Arg.(
    value & opt float 0.0
    & info [ "disorder" ]
        ~doc:
          "Delay each source event with probability $(docv) (seeded by --fault-seed; same \
           seed, same permutation): delayed events keep their event time but re-arrive up \
           to one window late, behind a zero-slack heuristic watermark, so they surface as \
           late data for --late-policy to handle.  0 keeps the historical in-order stream \
           byte-identical"
        ~docv:"P")

let late_policy_arg =
  let policy_conv =
    Arg.conv
      (late_policy_of_string, fun fmt p -> Format.pp_print_string fmt (D.late_policy_name p))
      ~docv:"POLICY"
  in
  Arg.(
    value & opt policy_conv D.Silent
    & info [ "late-policy" ]
        ~doc:
          "Attested late-data policy: $(b,silent) (historical default — late segments are \
           discarded, which the verifier flags as vanished dataflow), $(b,drop) \
           (drop+declare: a signed Late_drop record feeds the degradation verdict), or \
           $(b,retract) (retract-and-reemit: the closed window reopens and a sealed \
           Correction record supersedes the prior egress; --results-out then carries the \
           cloud-side merged bytes)")

let session_gap_arg =
  Arg.(
    value & opt (some int) None
    & info [ "session-gap" ]
        ~doc:
          "Close windows by event-time inactivity gaps of $(docv) ticks (session windows) \
           instead of the fixed grid; needs an in-order source, so it conflicts with \
           --disorder"
        ~docv:"TICKS")

let undeclared_late_arg =
  Arg.(
    value & flag
    & info [ "undeclared-late" ]
        ~doc:
          "Adversarial demo: write/verify the audit under a declaration that claims the \
           silent policy although the run handled late data — the verifier must flag \
           Undeclared_late_handling (exit 2)")

let dispatch name version windows epw batch cores_list target_ms hints fuse verbose
    frames_in audit_out trace_out exec_domains exec_mode deterministic exec_time_scale
    results_out resil fault_rates fault_seed ckpt_every max_restarts crash_at crash_site recover
    fleet_m partition_by kills uplinks stragglers suspect_after recover_after rogue
    omit_manifests tenants_n tenant_quotas tenant_mix solo_tenant disorder late_policy
    session_gap undeclared_late =
  let disorder_active =
    disorder > 0.0 || late_policy <> D.Silent || session_gap <> None || undeclared_late
  in
  if disorder < 0.0 || disorder > 1.0 then begin
    Printf.eprintf "--disorder must be a probability in [0, 1]\n";
    exit 1
  end;
  (match session_gap with
  | Some g when g <= 0 ->
      Printf.eprintf "--session-gap must be a positive tick count\n";
      exit 1
  | _ -> ());
  (* Disorder composes with --exec/--fuse/--tenants, but the recovery and
     fleet paths checkpoint/partition on the fixed window grid and make
     byte-identity claims that late reopenings would falsify. *)
  if disorder_active && (fleet_m > 0 || recover || crash_at <> None || resil) then begin
    Printf.eprintf
      "--disorder/--late-policy/--session-gap/--undeclared-late do not compose with \
       --fleet/--recover/--crash-at/--resilience\n";
    exit 1
  end;
  if session_gap <> None && disorder > 0.0 then begin
    Printf.eprintf
      "sessions need in-order event times; --session-gap does not compose with --disorder\n";
    exit 1
  end;
  if tenants_n > 0 || solo_tenant <> None then
    if fleet_m > 0 || resil || recover || crash_at <> None then begin
      Printf.eprintf
        "--tenants/--solo-tenant do not compose with --fleet/--resilience/--recover/--crash-at\n";
      exit 1
    end
    else if frames_in <> None then begin
      Printf.eprintf "--tenants generates each tenant's source; --frames is not supported\n";
      exit 1
    end
    else if undeclared_late then begin
      Printf.eprintf "--undeclared-late applies to single-pipeline runs, not --tenants\n";
      exit 1
    end
    else
      tenants_run name version windows epw batch tenants_n tenant_mix tenant_quotas solo_tenant
        hints fuse exec_domains exec_mode deterministic exec_time_scale disorder late_policy
        session_gap fault_seed verbose audit_out results_out
  else if fleet_m > 0 then
    fleet name version windows epw batch fleet_m partition_by kills uplinks stragglers
      suspect_after recover_after rogue omit_manifests ckpt_every deterministic verbose audit_out
      results_out
  else if resil then resilience name version windows epw batch fault_rates fault_seed
  else if recover || crash_at <> None then
    recovery name version windows epw batch ckpt_every max_restarts crash_at crash_site recover
      deterministic verbose audit_out results_out
  else
    run name version windows epw batch cores_list target_ms hints fuse verbose frames_in
      audit_out trace_out exec_domains exec_mode deterministic exec_time_scale results_out
      disorder late_policy session_gap undeclared_late fault_seed

let cmd =
  let doc = "Run a StreamBox-TZ benchmark pipeline" in
  Cmd.v
    (Cmd.info "sbt_run" ~doc)
    Term.(
      const dispatch $ name_arg $ version_arg $ windows_arg $ epw_arg $ batch_arg $ cores_arg
      $ target_arg $ hints_arg $ fuse_arg $ verbose_arg $ frames_arg $ audit_arg $ trace_arg
      $ exec_arg $ exec_mode_arg $ deterministic_arg $ exec_time_scale_arg $ results_out_arg
      $ resilience_arg $ fault_rates_arg $ fault_seed_arg $ ckpt_every_arg $ max_restarts_arg
      $ crash_at_arg $ crash_site_arg $ recover_arg $ fleet_arg $ partition_by_arg $ kills_arg
      $ uplinks_arg $ stragglers_arg $ suspect_after_arg $ recover_after_arg $ rogue_arg
      $ omit_manifests_arg $ tenants_arg $ tenant_quota_arg $ tenant_mix_arg $ solo_tenant_arg
      $ disorder_arg $ late_policy_arg $ session_gap_arg $ undeclared_late_arg)

let () = exit (Cmd.eval cmd)
