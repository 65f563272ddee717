(* sbt_run: run one of the paper's benchmark pipelines under a chosen
   engine version and report throughput, memory, and verification. *)

module B = Sbt_workloads.Benchmarks
module Datagen = Sbt_workloads.Datagen
module Runner = Sbt_core.Runner
module Runtime = Sbt_core.Runtime
module D = Sbt_core.Dataplane
module V = Sbt_attest.Verifier
module Fault = Sbt_fault.Fault
module Lossy = Sbt_net.Lossy

(* --- options ----------------------------------------------------------------

   One record holds the whole command line: the flags every mode honours
   (benchmark, version, sizes, --deterministic, --hints), the
   flags several modes read, and one group per mode.  Every flag that
   not all modes read is an option, a bool flag or a repeatable list, so
   [validate] can tell a given flag from an absent one. *)

type mode = Run | Crash | Recover | Fleet | Resilience | Tenants

type run_opts = {
  cores : int list option;
  target_ms : float option;
  frames : string option;
  trace : string option;
  undeclared_late : bool;
}

type recovery_opts = {
  recover : bool;
  crash_at : int option;
  crash_site : Fault.site option;
  max_restarts : int option;
}

type fleet_opts = {
  nodes : int option;
  kills : (int * int * bool) list;
  uplinks : (int * int * int) list;
  stragglers : (int * float) list;
  suspect_after : int option;
  recover_after : int option;
  rogue : bool;
  omit_manifests : bool;
}

type resilience_opts = { sweep : bool; fault_rates : float list option }

type tenants_opts = {
  count : int option;
  quotas : (int option * int) list;
  mix : string option;
  solo : int option;
}

type opts = {
  name : string;
  version : D.version;
  windows : int;
  epw : int;
  batch : int;
  deterministic : bool;
  hints : bool;
  verbose : bool;
  audit_out : string option;
  results_out : string option;
  disorder : float option;
  late_policy : D.late_policy option;
  session_gap : int option;
  fault_seed : int64 option;
  ckpt_every : int option;
  run : run_opts;
  recovery : recovery_opts;
  fleet : fleet_opts;
  resilience : resilience_opts;
  tenants : tenants_opts;
}

let default_fault_seed = 42L
let default_fault_rates = [ 0.0; 0.01; 0.05; 0.1; 0.2 ]
let default_suspect_after = 2

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline msg;
      exit 1)
    fmt

let mode o =
  if o.tenants.count <> None then Tenants
  else if o.fleet.nodes <> None then Fleet
  else if o.resilience.sweep then Resilience
  else if o.recovery.recover then Recover
  else if o.recovery.crash_at <> None then Crash
  else Run

let mode_name = function
  | Run -> "a plain run"
  | Crash -> "--crash-at without --recover"
  | Recover -> "--recover"
  | Fleet -> "--fleet"
  | Resilience -> "--resilience"
  | Tenants -> "--tenants"

(* The one place a flag meets a mode: every flag that not all modes
   honour, whether it was given, and the modes that read it.  A flag the
   selected mode does not read is rejected by name (exit 1) instead of
   being silently dropped.  Late policies and session windows reach the
   checkpointing modes too; the library refuses them there. *)
let validate o =
  let m = mode o in
  let given = Option.is_some in
  let reporting = [ Run; Recover; Fleet; Tenants ] in
  List.iter
    (fun (flag, set, readers) ->
      if set && not (List.mem m readers) then
        fail "sbt_run: %s does not apply to %s (read by: %s)" flag (mode_name m)
          (String.concat ", " (List.map mode_name readers)))
    [
      (* the insecure baseline has no audit for the other modes to verify *)
      ("--version insecure", o.version = D.Insecure, [ Run ]);
      ("--verbose", o.verbose, reporting);
      ("--audit-out", given o.audit_out, reporting);
      ("--results-out", given o.results_out, reporting);
      ("--late-policy", given o.late_policy, Crash :: reporting);
      ("--session-gap", given o.session_gap, Crash :: reporting);
      ("--disorder", given o.disorder, [ Run; Tenants ]);
      ("--fault-seed", given o.fault_seed, [ Run; Resilience; Tenants ]);
      ("--ckpt-every", given o.ckpt_every, [ Recover; Fleet ]);
      ("--cores", given o.run.cores, [ Run ]);
      ("--target-ms", given o.run.target_ms, [ Run ]);
      ("--frames", given o.run.frames, [ Run ]);
      ("--trace", given o.run.trace, [ Run ]);
      ("--undeclared-late", o.run.undeclared_late, [ Run ]);
      ("--recover", o.recovery.recover, [ Recover ]);
      ("--crash-at", given o.recovery.crash_at, [ Crash; Recover ]);
      ("--crash-site", given o.recovery.crash_site, [ Crash; Recover ]);
      ("--max-restarts", given o.recovery.max_restarts, [ Recover ]);
      ("--fleet", given o.fleet.nodes, [ Fleet ]);
      ("--kill", o.fleet.kills <> [], [ Fleet ]);
      ("--uplink-down", o.fleet.uplinks <> [], [ Fleet ]);
      ("--straggle", o.fleet.stragglers <> [], [ Fleet ]);
      ("--suspect-after", given o.fleet.suspect_after, [ Fleet ]);
      ("--recover-after", given o.fleet.recover_after, [ Fleet ]);
      ("--rogue-handoff", o.fleet.rogue, [ Fleet ]);
      ("--omit-handoff-manifests", o.fleet.omit_manifests, [ Fleet ]);
      ("--resilience", o.resilience.sweep, [ Resilience ]);
      ("--fault-rates", given o.resilience.fault_rates, [ Resilience ]);
      ("--tenants", given o.tenants.count, [ Tenants ]);
      ("--tenant-quota", o.tenants.quotas <> [], [ Tenants ]);
      ("--tenant-mix", given o.tenants.mix, [ Tenants ]);
      ("--solo-tenant", given o.tenants.solo, [ Tenants ]);
    ];
  m

(* --- shared builders --------------------------------------------------------- *)

let encrypted_ingress = function
  | D.Full | D.Io_via_os -> true
  | D.Clear_ingress | D.Insecure -> false

(* The positional benchmark, or tenant [i]'s pick from --tenant-mix. *)
let workload ?encrypted ?tenant o =
  let encrypted = Option.value encrypted ~default:(encrypted_ingress o.version) in
  let windows = o.windows and events_per_window = o.epw and batch_events = o.batch in
  match (tenant, o.tenants.mix) with
  | Some i, Some m -> (
      match B.mix ~windows ~events_per_window ~batch_events ~encrypted m i with
      | Some b -> b
      | None -> fail "unknown tenant mix %S (%s)" m (String.concat "|" B.mix_names))
  | _ -> (
      match B.by_name o.name with
      | Some mk -> mk ~windows ~events_per_window ~batch_events ~encrypted ()
      | None ->
          fail "unknown benchmark %S (topk|distinct|join|winsum|fps|filter|power|vitals)" o.name)

let pipeline o (b : B.t) =
  match o.session_gap with
  | Some g -> Sbt_core.Pipeline.with_session_gap b.B.pipeline ~gap_ticks:g
  | None -> b.B.pipeline

let disorder o = Option.value o.disorder ~default:0.0
let fault_seed o = Option.value o.fault_seed ~default:default_fault_seed

(* A disordered source advertises the tightest heuristic watermark
   (zero disorder slack), so real lateness actually surfaces as late
   data for the declared policy to handle. *)
let source o (b : B.t) =
  let rate = disorder o in
  if rate < 0.0 || rate > 1.0 then fail "--disorder must be a probability in [0, 1]"
  else if rate = 0.0 then B.frames b
  else
    Datagen.frames
      {
        b.B.spec with
        Datagen.disorder = Fault.disorder_plan ~seed:(fault_seed o) ~rate ();
        watermark = Datagen.Heuristic 0;
      }

(* The recording cores are the largest evaluated core count. *)
let config ?fault_plan ?tracer o =
  Runtime.Config.make ~version:o.version
    ?cores:(Option.map (List.fold_left max 1) o.run.cores)
    ~deterministic:o.deterministic ~hints_enabled:o.hints
    ?late_policy:o.late_policy ?fault_plan ?tracer ()

let write_to path what f =
  Option.iter
    (fun p ->
      f p;
      Printf.printf "%s written to %s\n" what p)
    path

(* --- plain run --------------------------------------------------------------- *)

let run o =
  let bench = workload o in
  let pipeline = pipeline o bench in
  let frames =
    match o.run.frames with Some path -> Sbt_io.read_frames path | None -> source o bench
  in
  let tracer = Option.map (fun _ -> Sbt_obs.Tracer.create ()) o.run.trace in
  let cfg = config ?tracer o in
  let outcome =
    Runner.run ?cores_list:o.run.cores
      ~target_delay_ms:(Option.value o.run.target_ms ~default:bench.B.target_delay_ms)
      cfg pipeline frames
  in
  let run = outcome.Runner.run in
  (* --undeclared-late presents the log under a quote claiming the
     silent policy: the declaration the verifier trusts omits what the
     edge actually did, and the replay must flag the mismatch. *)
  let spec_out =
    if o.run.undeclared_late then { run.Runtime.verifier_spec with V.late_policy = 0 }
    else run.Runtime.verifier_spec
  in
  (match (o.run.trace, tracer) with
  | Some path, Some tr ->
      Sbt_obs.Chrome_trace.write_file tr ~path;
      Printf.printf "trace written to %s (%d events; load in Perfetto or chrome://tracing)\n"
        path (Sbt_obs.Tracer.event_count tr)
  | _ -> ());
  write_to o.audit_out "signed audit log" (fun p ->
      Sbt_io.write_audit p spec_out run.Runtime.audit);
  (* the cloud-side merge: corrected windows carry their final
     (highest-generation) bytes, re-sealed under the canonical egress
     nonce — identical to [results] when nothing was corrected *)
  write_to o.results_out "sealed results" (fun p ->
      Sbt_io.write_results p outcome.Runner.results_corrected);
  if disorder o > 0.0 || cfg.Runtime.dp_config.D.late_policy <> D.Silent || o.session_gap <> None
  then begin
    let r = outcome.Runner.verifier_report in
    Printf.printf
      "late data: %d drop(s) covering %d event(s) | %d correction(s) across %d window(s)\n"
      r.V.late_drops r.V.late_events r.V.corrections
      (List.length r.V.corrected_windows)
  end;
  Format.printf "%a" Runner.pp_outcome outcome;
  if o.verbose then begin
    let s = run.Runtime.dp_stats in
    Format.printf
      "compute %.1f ms | mem %.1f ms | crypto %.1f ms | ingest %.1f ms | %d switch pairs | %d invocations@."
      (s.D.compute_ns /. 1e6) (s.D.mem_ns /. 1e6) (s.D.crypto_ns /. 1e6)
      (s.D.ingest_ns /. 1e6) s.D.switch_pairs s.D.invocations;
    Format.printf "audit: %d records, raw %d B, compressed %d B@." outcome.Runner.audit_records
      outcome.Runner.audit_raw_bytes outcome.Runner.audit_compressed_bytes;
    Format.printf "verifier: %a" V.pp_report outcome.Runner.verifier_report
  end;
  let stripped_ok =
    (not o.run.undeclared_late)
    ||
    let key = cfg.Runtime.dp_config.D.egress_key in
    let records =
      List.concat_map (fun b -> Sbt_attest.Log.open_batch ~key b) run.Runtime.audit
    in
    let r = V.verify spec_out records in
    Printf.printf "undeclared-late check: %d violation(s) under the stripped declaration\n"
      (List.length r.V.violations);
    V.ok r
  in
  if not (outcome.Runner.verified && stripped_ok) then exit 2

(* --- crash/recovery ----------------------------------------------------------

   Run under the crash-recovery supervisor: sealed TEE checkpoints every
   --ckpt-every closed windows, source-side frame replay, and — with
   --crash-at N — a deterministic injected crash after N executed tasks.
   With --recover the supervisor restarts from the latest sealed
   checkpoint and the multi-epoch verifier must accept the stitched log;
   without it the crash is fatal (exit 3), which is what the CI smoke
   uses to prove the crash actually fired. *)
let recovery o =
  let bench = workload o in
  let pipeline = pipeline o bench in
  let r = o.recovery in
  let fault_plan =
    match r.crash_at with
    | None -> Fault.none
    | Some n ->
        Fault.with_crash Fault.none
          ~site:(Option.value r.crash_site ~default:Fault.Crash_control)
          ~after_tasks:n
  in
  let cfg = config ~fault_plan o in
  let frames = source o bench in
  if not r.recover then (
    (* Crash armed but no supervisor: the run dies where the crash
       fires, keeping only what the normal world already held. *)
    match Runtime.run cfg pipeline frames with
    | outcome ->
        Printf.printf "run completed (%d results) — crash point beyond the run\n"
          (List.length outcome.Runtime.results);
        exit 3
    | exception Runtime.Crashed { site; uploads; results } ->
        Printf.printf
          "crashed at %s: %d audit batches and %d sealed results durable, in-TEE state lost \
           (re-run with --recover)\n"
          (Fault.site_name site) (List.length uploads) (List.length results);
        exit 3)
  else begin
    let s =
      Runtime.run_supervised ?max_restarts:r.max_restarts ?ckpt_every:o.ckpt_every cfg pipeline
        frames
    in
    Printf.printf
      "recovery: %d epoch(s), %d crash(es)%s | %d checkpoint(s), %d sealed B | %d frame(s) \
       replayed\n"
      s.Runtime.sv_epoch_count
      (List.length s.Runtime.sv_crash_sites)
      (match s.Runtime.sv_crash_sites with
      | [] -> ""
      | sites -> " [" ^ String.concat ", " (List.map Fault.site_name sites) ^ "]")
      s.Runtime.sv_checkpoints s.Runtime.sv_checkpoint_bytes s.Runtime.sv_replayed_frames;
    write_to o.audit_out "stitched audit log" (fun p ->
        Sbt_io.write_audit p (Sbt_core.Pipeline.verifier_spec pipeline) s.Runtime.sv_audit);
    write_to o.results_out "sealed results" (fun p -> Sbt_io.write_results p s.Runtime.sv_results);
    let r = s.Runtime.sv_report in
    if o.verbose then Format.printf "verifier: %a" V.pp_report r
    else
      Printf.printf "verifier: %s (%d windows, %d violations)\n"
        (if V.ok r then "ok" else "VIOLATIONS")
        r.V.windows_verified (List.length r.V.violations);
    if not (V.ok r) then exit 2
  end

(* --- resilience scenario -----------------------------------------------------

   Sweep fault rates over one benchmark: authenticated frames cross a lossy
   link, the data plane sheds and retries under injected SMC/pool faults,
   and the cloud verifier replays the (possibly uplink-truncated) audit log.
   Reports goodput and whether loss surfaced as declared degradation
   (verified) or as violations (tamper evidence). *)
let resilience o =
  let bench = workload o in
  let pipeline = pipeline o bench in
  let spec = { bench.B.spec with Datagen.authenticated = true } in
  let total_events = Datagen.total_events spec in
  let clean_frames = Datagen.frames spec in
  Printf.printf "resilience: %s / %s, %d events, seed %Ld\n" bench.B.name
    (D.version_name o.version) total_events (fault_seed o);
  Printf.printf "%-6s %-28s %-9s %-5s %-7s %-7s %-10s %s\n" "rate" "link(del/drop/corr)" "goodput"
    "gaps" "shed" "busy" "verified" "uplink-drop";
  let all_verified = ref true in
  List.iter
    (fun rate ->
      let plan = Fault.uniform ~seed:(fault_seed o) ~rate () in
      let frames, link = Lossy.apply plan clean_frames in
      let cfg = config ~fault_plan:plan o in
      let outcome = Runner.run cfg pipeline frames in
      let r = outcome.Runner.run in
      (* Events that survived the link AND were ingested, over events the
         source generated: frames the link ate never reach the control
         plane, so they are missing from [total_events] already. *)
      let goodput =
        float_of_int
          (r.Runtime.total_events - Runtime.Loss.events_dropped r.Runtime.loss)
        /. float_of_int (max 1 total_events)
      in
      (* The uplink leg: drop whole signed batches and replay what is
         left - the verifier must notice the hole. *)
      let kept =
        List.filter
          (fun (b : Sbt_attest.Log.batch) -> not (Fault.uplink_drops plan ~seq:b.Sbt_attest.Log.seq))
          r.Runtime.audit
      in
      let uplink_verdict =
        if List.length kept = List.length r.Runtime.audit then "none"
        else
          let key = cfg.Runtime.dp_config.D.egress_key in
          let records = List.concat_map (fun b -> Sbt_attest.Log.open_batch ~key b) kept in
          let report = V.verify r.Runtime.verifier_spec records in
          Printf.sprintf "%d batches lost -> %d violations"
            (List.length r.Runtime.audit - List.length kept)
            (List.length report.V.violations)
      in
      if not outcome.Runner.verified then all_verified := false;
      Printf.printf "%-6.2f %-28s %-9.3f %-5d %-7d %-7d %-10b %s\n" rate
        (Printf.sprintf "%d/%d/%d" link.Lossy.delivered link.Lossy.dropped link.Lossy.corrupted)
        goodput
        (Runtime.Loss.gaps_declared r.Runtime.loss)
        r.Runtime.dp_stats.D.sheds r.Runtime.dp_stats.D.smc_busy_rejections
        outcome.Runner.verified uplink_verdict)
    (Option.value o.resilience.fault_rates ~default:default_fault_rates);
  (* Loss must surface as declared degradation, never as tamper
     evidence: any rate whose replay raised violations fails the sweep. *)
  if not !all_verified then exit 2

(* --- fleet under churn -------------------------------------------------------

   Drive M simulated edge nodes over one key-partitioned workload with a
   deterministic churn scenario: --kill halts an edge at a checkpoint
   boundary (transient crashes reboot in place; permanent ones are
   declared dead after --suspect-after missed beats and their key range
   is handed off to a survivor under a signed manifest), --uplink-down
   silences heartbeats without stopping work, --straggle slows a node.
   The merged egress of a churned fleet is byte-identical to the
   un-churned run (cmp the --results-out files).  Exit 2 = the fleet
   verifier found violations, exit 3 = a death found no survivor. *)
let fleet o =
  let module Fleet = Sbt_fleet.Fleet in
  let f = o.fleet in
  (* partitioning happens at the source, before wire protection *)
  let bench = workload ~encrypted:false o in
  let pipeline = pipeline o bench in
  let events =
    List.map (fun (node, at_beat, permanent) -> Fault.Kill { node; at_beat; permanent }) f.kills
    @ List.map
        (fun (node, at_beat, beats) -> Fault.Uplink_partition { node; at_beat; beats })
        f.uplinks
    @ List.map (fun (node, factor) -> Fault.Straggle { node; factor }) f.stragglers
  in
  let scenario =
    Fault.fleet_scenario ?recover_after:f.recover_after
      ~suspect_after:(Option.value f.suspect_after ~default:default_suspect_after)
      events
  in
  match
    Fleet.run ?ckpt_every:o.ckpt_every ~rogue_handoff:f.rogue ~scenario
      ~nodes:(Option.get f.nodes) ~batch_events:o.batch (config o) pipeline (B.frames bench)
  with
  | exception Fleet.No_survivor { partition; beat } ->
      Printf.eprintf "partition %d lost its edge at beat %d and no eligible survivor remains\n"
        partition beat;
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
      let omitted = if f.omit_manifests then List.length s.Fleet.handoffs else 0 in
      write_to o.audit_out
        (if omitted > 0 then
           Printf.sprintf "fleet audit bundle with %d handoff manifest(s) DELIBERATELY OMITTED"
             omitted
         else "fleet audit bundle")
        (fun p ->
          Sbt_io.write_fleet_audit p
            (Sbt_core.Pipeline.verifier_spec pipeline)
            ~partitions:s.Fleet.nodes ~windows:s.Fleet.windows s.Fleet.edges
            (if f.omit_manifests then [] else List.map snd s.Fleet.handoffs));
      write_to o.results_out "merged sealed results" (fun p ->
          Sbt_io.write_results p (List.map (fun (_, p, sr) -> (p, sr)) s.Fleet.merged));
      let r = s.Fleet.report in
      if o.verbose then Format.printf "fleet verifier: %a" V.pp_fleet_report r
      else
        Printf.printf "fleet verifier: %s (%d/%d partitions, %d handoff(s) verified)\n"
          (if V.fleet_ok r then "ok" else "VIOLATIONS")
          r.V.partitions_present r.V.partitions_expected r.V.handoffs_verified;
      if not (V.fleet_ok r) then exit 2

(* --- multi-tenant enclave ----------------------------------------------------

   Admit N tenant pipelines into one enclave through the Session API:
   per-tenant page quotas (an over-budget tenant sheds and degrades
   alone), per-tenant opaque-ref namespaces, DRR-fair scheduling, and
   per-tenant audit sub-streams judged independently.  --solo-tenant I
   runs tenant I of the same N-tenant spec alone; its per-tenant output
   files are byte-identical to the joint run's (the CI cmp smoke).
   Exit 2 when any tenant's verdict is not clean (violations or
   declared degradation). *)
let tenants o =
  let module Session = Sbt_core.Session in
  let t = o.tenants in
  let n = Option.get t.count in
  let quota_for id =
    let pick sel = List.filter_map (fun (s, p) -> if s = sel then Some p else None) t.quotas in
    match (List.rev (pick (Some id)), List.rev (pick None)) with
    | p :: _, _ | [], p :: _ -> Some p
    | [], [] -> None
  in
  let ids =
    match t.solo with
    | None -> List.init n (fun i -> i)
    | Some i when i >= 0 && i < n -> [ i ]
    | Some i -> fail "--solo-tenant %d outside 0..%d" i (n - 1)
  in
  let session =
    List.fold_left
      (fun s i ->
        let b = workload ~tenant:i o in
        Session.add_tenant ~id:i ?quota_pages:(quota_for i) ~pipeline:(pipeline o b)
          ~source:(source o b) s)
      (Session.create (config o))
      ids
  in
  let res = Session.run session in
  Printf.printf
    "tenants: %d in one enclave | %d events | agg %.2f Mev/s | p99 delay %.2f ms | max %.2f ms\n"
    (List.length res.Session.tenants) res.Session.agg_events
    (res.Session.agg_events_per_sec /. 1e6)
    (res.Session.p99_delay_ns /. 1e6)
    (res.Session.max_delay_ns /. 1e6);
  if o.verbose then
    List.iter
      (fun tr ->
        let r = tr.Session.tr_run in
        Printf.printf
          "tenant %d: %d events | %d window(s) | %d shed(s) | mean delay %.2f ms | max %.2f ms\n"
          tr.Session.tr_id r.Runtime.total_events (List.length r.Runtime.results)
          r.Runtime.dp_stats.D.sheds
          (tr.Session.tr_mean_delay_ns /. 1e6)
          (tr.Session.tr_max_delay_ns /. 1e6))
      res.Session.tenants;
  (* durable per-tenant outputs: <path>.t<id>, byte-comparable with a
     --solo-tenant run of the same spec *)
  let per_tenant path write =
    List.iter
      (fun tr -> write (Printf.sprintf "%s.t%d" path tr.Session.tr_id) tr.Session.tr_run)
      res.Session.tenants
  in
  write_to o.results_out "sealed results (one file per tenant, suffix .t<ID>)" (fun p ->
      per_tenant p (fun path r -> Sbt_io.write_results path r.Runtime.results));
  write_to o.audit_out "audit sub-streams (one file per tenant, suffix .t<ID>)" (fun p ->
      per_tenant p (fun path r -> Sbt_io.write_audit path r.Runtime.verifier_spec r.Runtime.audit));
  let report = res.Session.report in
  Format.printf "%a" V.pp_tenants_report report;
  if not (V.tenants_ok report) || report.V.tenants_degraded > 0 then exit 2

let main o =
  let m = validate o in
  try
    match m with
    | Run -> run o
    | Crash | Recover -> recovery o
    | Fleet -> fleet o
    | Resilience -> resilience o
    | Tenants -> tenants o
  with Invalid_argument msg | D.Rejected msg -> fail "%s" msg

(* --- command line ----------------------------------------------------------- *)

open Cmdliner
open Cmdliner.Term.Syntax

(* A converter for [docv]-shaped values whose [parse] raises on bad input. *)
let shaped ~docv parse print =
  let parse s =
    try Ok (parse s)
    with Scanf.Scan_failure _ | Failure _ | End_of_file ->
      Error (`Msg (Printf.sprintf "bad value %S (expected %s)" s docv))
  in
  Arg.conv (parse, print) ~docv

let kill_conv =
  shaped ~docv:"NODE@BEAT[:permanent]"
    (fun s ->
      Scanf.sscanf s "%d@%d%s%!" (fun node beat -> function
        | "" -> (node, beat, false)
        | ":permanent" -> (node, beat, true)
        | _ -> failwith s))
    (fun fmt (n, b, p) -> Format.fprintf fmt "%d@%d%s" n b (if p then ":permanent" else ""))

let uplink_conv =
  shaped ~docv:"NODE@BEAT:BEATS"
    (fun s -> Scanf.sscanf s "%d@%d:%d%!" (fun n b d -> (n, b, d)))
    (fun fmt (n, b, d) -> Format.fprintf fmt "%d@%d:%d" n b d)

let straggle_conv =
  shaped ~docv:"NODE:FACTOR"
    (fun s -> Scanf.sscanf s "%d:%f%!" (fun n f -> (n, f)))
    (fun fmt (n, f) -> Format.fprintf fmt "%d:%g" n f)

let quota_conv =
  shaped ~docv:"[ID:]PAGES"
    (fun s ->
      let sel, pages =
        match String.split_on_char ':' s with
        | [ p ] -> (None, int_of_string p)
        | [ i; p ] -> (Some (int_of_string i), int_of_string p)
        | _ -> failwith s
      in
      if pages <= 0 || Option.fold ~none:false ~some:(fun i -> i < 0) sel then failwith s;
      (sel, pages))
    (fun fmt -> function
      | None, p -> Format.pp_print_int fmt p
      | Some i, p -> Format.fprintf fmt "%d:%d" i p)

(* Flags that not every mode reads stay absent ([None], [false], [[]])
   unless given, so [validate] can see them; [none] documents the
   default a mode falls back to. *)
let opt_some ?docv c none names doc =
  Arg.(value & opt (some' ~none c) None & info names ?docv ~doc)

let opt_maybe ?docv c names doc = Arg.(value & opt (some c) None & info names ?docv ~doc)
let flag names doc = Arg.(value & flag & info names ~doc)
let repeated c names doc = Arg.(value & opt_all c [] & info names ~doc)

let run_opts =
  let+ cores = opt_some Arg.(list int) [ 2; 4; 8 ] [ "cores"; "c" ] "Core counts to evaluate"
  and+ target_ms =
    opt_maybe Arg.float [ "target-ms" ]
      "Output-delay target (default: paper's per-benchmark target)"
  and+ frames =
    opt_maybe Arg.file [ "frames" ] "Read the source stream from a file written by sbt_datagen"
  and+ trace =
    opt_maybe Arg.string [ "trace" ]
      "Write a Chrome trace_event JSON of the recording run (virtual-time spans; open in \
       Perfetto)"
  and+ undeclared_late =
    flag [ "undeclared-late" ]
      "Adversarial demo: write/verify the audit under a declaration that claims the silent \
       policy although the run handled late data — the verifier must flag \
       Undeclared_late_handling (exit 2)"
  in
  { cores; target_ms; frames; trace; undeclared_late }

let recovery_opts =
  let+ recover =
    flag [ "recover" ]
      "Supervise the run: seal TEE checkpoints every --ckpt-every closed windows, and on a \
       crash restart from the latest valid checkpoint, replay the unacknowledged frame suffix, \
       and verify the stitched multi-epoch audit log (exit 2 on any violation)"
  and+ crash_at =
    opt_maybe ~docv:"N" Arg.int [ "crash-at" ]
      "Inject a crash after $(docv) executed tasks: in-TEE state is lost and only normal-world \
       durable state (sealed checkpoints, uploaded audit batches, egressed results) survives.  \
       Fatal (exit 3) unless --recover supervises the run"
  and+ crash_site =
    opt_some
      (Arg.enum [ ("control", Fault.Crash_control); ("reboot", Fault.Crash_reboot) ])
      Fault.Crash_control [ "crash-site" ]
      "Where --crash-at fires: $(b,control) (mid-task, control plane) or $(b,reboot) (at a \
       checkpoint boundary, after the blob is durable)"
  and+ max_restarts =
    opt_some Arg.int 3 [ "max-restarts" ] "Supervisor restart budget before a crash becomes fatal"
  in
  { recover; crash_at; crash_site; max_restarts }

let fleet_opts =
  let+ nodes =
    opt_maybe ~docv:"M" Arg.int [ "fleet" ]
      "Run $(docv) simulated edge nodes over the workload key-partitioned $(docv) ways, merge \
       their egress cloud-side, and judge the fleet with the fleet-scope verifier (exit 2 on \
       violations, exit 3 if a death finds no survivor)"
  and+ kills =
    repeated kill_conv [ "kill" ]
      "Kill edge NODE after it closes window BEAT (repeatable).  The checkpoint for that beat \
       is durable; in-TEE state is lost.  Transient kills reboot --recover-after beats later; \
       $(b,:permanent) kills are declared dead after --suspect-after missed beats and the \
       node's key range is handed off to a survivor under a signed manifest"
  and+ uplinks =
    repeated uplink_conv [ "uplink-down" ]
      "Silence edge NODE's heartbeats for BEATS beats starting at BEAT (repeatable); the node \
       keeps working and reconnects with backoff.  Long enough outages are declared deaths"
  and+ stragglers =
    repeated straggle_conv [ "straggle" ]
      "Run edge NODE FACTOR times slower (repeatable); a straggler too slow for \
       --suspect-after is declared dead and handed off"
  and+ suspect_after =
    opt_some Arg.int default_suspect_after [ "suspect-after" ]
      "Missed beats before the failure detector declares an edge dead"
  and+ recover_after =
    opt_some Arg.int 1 [ "recover-after" ]
      "Beats a transiently-killed edge stays down before rebooting"
  and+ rogue =
    flag [ "rogue-handoff" ]
      "Adversarial failover demo: the survivor re-runs the dead edge's partition from scratch \
       and discards the handoff manifest — the fleet verifier must flag the unattested handoff \
       and the cross-edge duplicates (exit 2)"
  and+ omit_manifests =
    flag [ "omit-handoff-manifests" ]
      "Strip the sealed handoff manifests from the --audit-out bundle (the run itself is \
       honest) — sbt_verify must then refuse the cross-edge stitch (exit 2)"
  in
  { nodes; kills; uplinks; stragglers; suspect_after; recover_after; rogue; omit_manifests }

let resilience_opts =
  let+ sweep =
    flag [ "resilience" ]
      "Fault-rate sweep: lossy link, transient SMC refusals, pool pressure and uplink loss, \
       reporting goodput and verification per rate"
  and+ fault_rates =
    opt_some Arg.(list float) default_fault_rates [ "fault-rates" ]
      "Fault rates to sweep with --resilience"
  in
  { sweep; fault_rates }

let tenants_opts =
  let+ count =
    opt_maybe ~docv:"N" Arg.int [ "tenants" ]
      "Admit $(docv) tenant pipelines into one enclave behind the Session API: per-tenant page \
       quotas, per-tenant opaque-ref namespaces, deficit-round-robin fair scheduling and \
       per-tenant audit sub-streams judged independently (exit 2 if any tenant's verdict is \
       not clean)"
  and+ quotas =
    repeated quota_conv [ "tenant-quota" ]
      "Secure-DRAM quota in 4 KiB pages, for every tenant ($(b,PAGES)) or one tenant \
       ($(b,ID:PAGES)); repeatable, the most specific (and latest) spec wins.  An over-budget \
       tenant sheds and degrades alone — co-tenants stay clean"
  and+ mix =
    opt_maybe Arg.string [ "tenant-mix" ]
      "Assign tenant workloads round-robin from a named family ($(b,taxi)|$(b,power)|\
       $(b,mixed)) instead of running every tenant on the positional BENCHMARK"
  and+ solo =
    opt_maybe ~docv:"I" Arg.int [ "solo-tenant" ]
      "Run only tenant $(docv) of the --tenants spec, alone in the enclave; its per-tenant \
       output files are byte-identical to the joint run's (cmp them)"
  in
  { count; quotas; mix; solo }

let opts =
  let+ name =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"BENCHMARK"
          ~doc:"topk, distinct, join, winsum, fps, filter, power or vitals")
  and+ version =
    Arg.(
      value
      & opt
          (enum
             [ ("full", D.Full); ("clear", D.Clear_ingress); ("viaos", D.Io_via_os);
               ("insecure", D.Insecure) ])
          D.Full
      & info [ "version"; "v" ] ~doc:"Engine version: full, clear, viaos or insecure")
  and+ windows = Arg.(value & opt int 4 & info [ "windows"; "w" ] ~doc:"Number of 1-second windows")
  and+ epw =
    Arg.(value & opt int 100_000 & info [ "events-per-window"; "e" ] ~doc:"Events per window")
  and+ batch = Arg.(value & opt int 10_000 & info [ "batch"; "b" ] ~doc:"Events per input batch")
  and+ deterministic =
    flag [ "deterministic" ]
      "Zero the cost model's host_scale so recorded costs carry no measured host time: \
       results, audit bytes and verdicts become byte-reproducible across runs and processes"
  and+ hints = Arg.(value & opt bool true & info [ "hints" ] ~doc:"Enable consumption hints")
  and+ verbose = flag [ "verbose" ] "Print data-plane statistics"
  and+ audit_out =
    opt_maybe Arg.string [ "audit-out" ] "Write the signed audit log to a file for sbt_verify"
  and+ results_out =
    opt_maybe Arg.string [ "results-out" ]
      "Write the sealed per-window results to a file (byte-comparable across runs with cmp)"
  and+ disorder =
    opt_some ~docv:"P" Arg.float 0.0 [ "disorder" ]
      "Delay each source event with probability $(docv) (seeded by --fault-seed; same seed, \
       same permutation): delayed events keep their event time but re-arrive up to one window \
       late, behind a zero-slack heuristic watermark, so they surface as late data for \
       --late-policy to handle.  0 keeps the in-order stream"
  and+ late_policy =
    opt_some
      (Arg.enum [ ("silent", D.Silent); ("drop", D.Drop_declare); ("retract", D.Retract_reemit) ])
      D.Silent [ "late-policy" ]
      "Attested late-data policy: $(b,silent) (late segments are discarded, which the \
       verifier flags as vanished dataflow), $(b,drop) (drop+declare: a signed Late_drop \
       record feeds the degradation verdict), or $(b,retract) (retract-and-reemit: the closed \
       window reopens and a sealed Correction record supersedes the prior egress; \
       --results-out then carries the cloud-side merged bytes).  Checkpointed runs \
       (--recover, --fleet) accept only $(b,silent)"
  and+ session_gap =
    opt_maybe ~docv:"TICKS" Arg.int [ "session-gap" ]
      "Close windows by event-time inactivity gaps of $(docv) ticks (session windows) instead \
       of the fixed grid; needs an in-order source, and no checkpointing"
  and+ fault_seed =
    opt_some Arg.int64 default_fault_seed [ "fault-seed" ]
      "Seed of the deterministic fault plan and of --disorder (same seed, same faults)"
  and+ ckpt_every =
    opt_some Arg.int 1 [ "ckpt-every" ]
      "Sealed-checkpoint interval in closed windows for --recover and --fleet runs"
  and+ run = run_opts
  and+ recovery = recovery_opts
  and+ fleet = fleet_opts
  and+ resilience = resilience_opts
  and+ tenants = tenants_opts in
  { name; version; windows; epw; batch; deterministic; hints; verbose; audit_out;
    results_out; disorder; late_policy; session_gap;
    fault_seed; ckpt_every; run; recovery; fleet; resilience; tenants }

let cmd =
  Cmd.v
    (Cmd.info "sbt_run" ~doc:"Run a StreamBox-TZ benchmark pipeline"
       ~man:
         [
           `S "MODES";
           `P
             "A plain run by default; --recover or --crash-at, --fleet, --resilience and \
              --tenants each select another mode.  A flag the selected mode does not read \
              exits 1 and names the flag.";
         ])
    Term.(const main $ opts)

let () = exit (Cmd.eval cmd)
