(* Multi-tenant enclave tests: the joint-equals-solo invariant (a
   tenant's sealed results, audit bytes and verdict depend only on its
   own {id; pipeline; source; quota}, never on co-tenants), quota-shed
   isolation (an over-budget tenant degrades alone), in-TEE rejection of
   cross-tenant opaque refs, per-tenant verifier independence (one bad
   tenant cannot poison the others' verdicts), and the 1-tenant Session
   special case collapsing to Runtime.run. *)

module D = Sbt_core.Dataplane
module Runtime = Sbt_core.Runtime
module Session = Sbt_core.Session
module Multi = Sbt_core.Multi
module B = Sbt_workloads.Benchmarks
module V = Sbt_attest.Verifier
module Log = Sbt_attest.Log
module M = Sbt_obs.Metrics
module P = Sbt_prim.Primitive
module Frame = Sbt_net.Frame

(* Deterministic cost model (host_scale = 0) so recordings are
   byte-reproducible and structural equality is meaningful. *)
let det_cfg ?(cores = 4) () =
  Runtime.Config.make ~cores ~deterministic:true ()

let mk_tenant ?quota_pages ?(windows = 2) ?(events_per_window = 2_000) ?(batch = 500) ~id off =
  let b =
    match
      B.mix ~windows ~events_per_window ~batch_events:batch ~encrypted:true "mixed" (id + off)
    with
    | Some b -> b
    | None -> Alcotest.fail "mixed tenant mix missing"
  in
  { Multi.id; pipeline = b.B.pipeline; source = B.frames b; quota_pages }

let tenant_observables (tr : Multi.tenant_result) =
  (tr.Multi.tr_run.Runtime.results, tr.Multi.tr_run.Runtime.audit)

(* --- joint-equals-solo ------------------------------------------------------ *)

let prop_joint_matches_solo =
  QCheck.Test.make ~name:"N tenants jointly = each solo (results, audit, verdict)" ~count:6
    QCheck.(pair (int_range 2 4) (int_range 0 6))
    (fun (n, off) ->
      let tenants = List.init n (fun i -> mk_tenant ~id:i off) in
      let joint = Multi.run (det_cfg ()) tenants in
      List.for_all
        (fun t ->
          let solo = Multi.run (det_cfg ()) [ t ] in
          let jt = List.find (fun r -> r.Multi.tr_id = t.Multi.id) joint.Multi.tenants in
          let st = List.hd solo.Multi.tenants in
          let verdict (res : Multi.result) id =
            match res.Multi.report with
            | Some r ->
                let tr = List.find (fun x -> x.V.tn_tenant = id) r.V.tenant_reports in
                (V.ok tr.V.tn_report, tr.V.tn_report.V.declared_gaps)
            | None -> QCheck.Test.fail_report "verification missing"
          in
          tenant_observables jt = tenant_observables st
          && verdict joint t.Multi.id = verdict solo t.Multi.id)
        tenants)

(* --- 1-tenant Session = Runtime.run ----------------------------------------- *)

let test_single_tenant_session_matches_runtime_run () =
  let b =
    match B.by_name "winsum" with
    | Some mk -> mk ~windows:2 ~events_per_window:2_000 ~batch_events:500 ~encrypted:true ()
    | None -> Alcotest.fail "winsum missing"
  in
  let frames = B.frames b in
  let direct = Runtime.run (det_cfg ()) b.B.pipeline frames in
  let via_session =
    Session.create (det_cfg ())
    |> Session.add_tenant ~pipeline:b.B.pipeline ~source:frames
    |> Session.run_single
  in
  Alcotest.(check bool)
    "sealed results identical" true
    (direct.Runtime.results = via_session.Runtime.results);
  Alcotest.(check bool)
    "audit bytes identical" true
    (direct.Runtime.audit = via_session.Runtime.audit);
  Alcotest.(check int)
    "same event count" direct.Runtime.total_events via_session.Runtime.total_events

(* --- quota isolation -------------------------------------------------------- *)

let test_quota_shed_isolates_offender () =
  (* Tenant 0 gets a quota far under its working set; tenant 1 is
     uncapped.  Only tenant 0 may shed/degrade, and tenant 1's
     observables must equal its solo run's. *)
  let heavy id quota =
    mk_tenant ?quota_pages:quota ~windows:2 ~events_per_window:10_000 ~batch:5_000 ~id 0
  in
  let t0 = heavy 0 (Some 64) and t1 = heavy 1 None in
  let joint = Multi.run (det_cfg ()) [ t0; t1 ] in
  let tr id = List.find (fun r -> r.Multi.tr_id = id) joint.Multi.tenants in
  let sheds id = (tr id).Multi.tr_run.Runtime.dp_stats.D.sheds in
  Alcotest.(check bool) "offender sheds" true (sheds 0 > 0);
  Alcotest.(check int) "co-tenant never sheds" 0 (sheds 1);
  (match joint.Multi.report with
  | None -> Alcotest.fail "expected verification"
  | Some r ->
      let rep id = (List.find (fun x -> x.V.tn_tenant = id) r.V.tenant_reports).V.tn_report in
      Alcotest.(check bool) "offender degraded, not violating" true (V.ok (rep 0));
      Alcotest.(check bool) "offender declared its loss" true ((rep 0).V.declared_gaps > 0);
      Alcotest.(check bool) "co-tenant clean" true
        (V.ok (rep 1) && (rep 1).V.declared_gaps = 0);
      Alcotest.(check int) "one degraded" 1 r.V.tenants_degraded;
      Alcotest.(check int) "one clean" 1 r.V.tenants_clean);
  let solo1 = Multi.run (det_cfg ()) [ t1 ] in
  Alcotest.(check bool)
    "co-tenant unaffected by the offender" true
    (tenant_observables (tr 1) = tenant_observables (List.hd solo1.Multi.tenants))

(* --- cross-tenant opaque refs ----------------------------------------------- *)

let test_cross_tenant_ref_rejected_in_tee () =
  let owners = Hashtbl.create 64 in
  let dp_for tenant =
    let cfg =
      D.Config.make ~version:D.Clear_ingress
        ~namespace:{ D.ns_tenant = tenant; ns_owners = owners }
        ()
    in
    D.create cfg
  in
  let dp0 = dp_for 0 and dp1 = dp_for 1 in
  let payload =
    Frame.pack_events ~width:3 [| [| 3l; 30l; 0l |]; [| 1l; 10l; 1l |]; [| 2l; 20l; 2l |] |]
  in
  let r0 =
    match
      D.call dp0
        (D.R_ingest_events
           { payload; encrypted = false; stream = 0; seq = 0; mac = Bytes.empty; windowing = None })
    with
    | D.Ingested { outs = [ out ]; _ } -> out.D.ref_
    | D.Ingested _ -> Alcotest.fail "ingest without windowing must return one batch"
    | D.Refused _ -> Alcotest.fail "ingest refused"
  in
  (* the minting tenant can use its own ref... *)
  ignore
    (D.call dp0
       (D.R_invoke
          {
            chain = [ (P.Sort, []) ];
            inputs = [ r0 ];
            trigger = None;
            hints = [];
            retire_inputs = false;
          }));
  (* ...but the same ref presented by another tenant is rejected in-TEE,
     and distinguishably from a fabricated/stale ref. *)
  try
    ignore
      (D.call dp1
         (D.R_invoke
            {
              chain = [ (P.Sort, []) ];
              inputs = [ r0 ];
              trigger = None;
              hints = [];
              retire_inputs = false;
            }));
    Alcotest.fail "cross-tenant ref accepted"
  with D.Cross_tenant_ref { ref_; owner; tenant } ->
    Alcotest.(check bool) "the very ref" true (Int64.equal ref_ r0);
    Alcotest.(check int) "minted by tenant 0" 0 owner;
    Alcotest.(check int) "presented by tenant 1" 1 tenant

(* --- verifier independence --------------------------------------------------- *)

let test_one_bad_tenant_does_not_poison_the_rest () =
  let cfg = det_cfg () in
  let tenants = List.init 2 (fun i -> mk_tenant ~id:i 0) in
  let res = Multi.run ~verify:false cfg tenants in
  let chain id =
    let tr = List.find (fun r -> r.Multi.tr_id = id) res.Multi.tenants in
    {
      V.tenant = id;
      t_spec = tr.Multi.tr_run.Runtime.verifier_spec;
      t_audit = tr.Multi.tr_run.Runtime.audit;
    }
  in
  let base = cfg.Runtime.dp_config.D.egress_key in
  (* (a) tenant 0 drops an audit batch: its own verdict gains violations,
     tenant 1 stays clean. *)
  let dropped =
    let c = chain 0 in
    { c with V.t_audit = List.tl c.V.t_audit }
  in
  let r = V.verify_tenants ~key:base [ dropped; chain 1 ] in
  let rep id = (List.find (fun x -> x.V.tn_tenant = id) r.V.tenant_reports).V.tn_report in
  Alcotest.(check bool) "dropped batch: tenant 0 violating" false (V.ok (rep 0));
  Alcotest.(check bool) "tenant 1 unaffected" true (V.ok (rep 1));
  Alcotest.(check int) "one violating" 1 r.V.tenants_violating;
  Alcotest.(check bool) "fleet-of-tenants not ok" false (V.tenants_ok r);
  (* (b) tenant 0's audit bytes tampered: authentication fails for that
     sub-stream only, reported as a per-tenant violation, not an
     exception. *)
  let tampered =
    let c = chain 0 in
    let bad =
      List.map
        (fun (b : Log.batch) ->
          let p = Bytes.copy b.Log.payload in
          if Bytes.length p > 0 then
            Bytes.set p 0 (Char.chr (Char.code (Bytes.get p 0) lxor 1));
          { b with Log.payload = p })
        c.V.t_audit
    in
    { c with V.t_audit = bad }
  in
  let r2 = V.verify_tenants ~key:base [ tampered; chain 1 ] in
  let rep2 id = (List.find (fun x -> x.V.tn_tenant = id) r2.V.tenant_reports).V.tn_report in
  Alcotest.(check bool) "tampered stream: tenant 0 flagged" false (V.ok (rep2 0));
  (match (rep2 0).V.violations with
  | V.Tenant_log_unverifiable { tenant = 0; _ } :: _ -> ()
  | _ -> Alcotest.fail "expected Tenant_log_unverifiable for tenant 0");
  Alcotest.(check bool) "tenant 1 still clean" true (V.ok (rep2 1))

(* --- tenant keys -------------------------------------------------------------- *)

let test_tenant_keys_scoped () =
  let base = Bytes.of_string "sbt-egress-key16" in
  Alcotest.(check bool) "tenant 0 inherits" true (V.tenant_key ~base 0 == base);
  let k1 = V.tenant_key ~base 1 and k2 = V.tenant_key ~base 2 in
  Alcotest.(check bool) "tenant 1 derived" false (Bytes.equal k1 base);
  Alcotest.(check bool) "tenants differ" false (Bytes.equal k1 k2);
  Alcotest.(check bool) "derivation is stable" true (Bytes.equal k1 (V.tenant_key ~base 1))

(* --- session builder ----------------------------------------------------------- *)

let test_session_assigns_ids_and_validates () =
  let b =
    match B.by_name "winsum" with
    | Some mk -> mk ~windows:1 ~events_per_window:500 ~batch_events:250 ~encrypted:true ()
    | None -> Alcotest.fail "winsum missing"
  in
  let s =
    Session.create (det_cfg ())
    |> Session.add_tenant ~pipeline:b.B.pipeline ~source:(B.frames b)
    |> Session.add_tenant ~pipeline:b.B.pipeline ~source:(B.frames b)
    |> Session.add_tenant ~id:7 ~pipeline:b.B.pipeline ~source:(B.frames b)
  in
  Alcotest.(check (list int))
    "auto ids fill from 0, explicit ids respected" [ 0; 1; 7 ]
    (List.map (fun t -> t.Multi.id) (Session.tenants s));
  (try
     ignore (Multi.run (det_cfg ()) [ mk_tenant ~id:3 0; mk_tenant ~id:3 1 ]);
     Alcotest.fail "duplicate tenant ids admitted"
   with Invalid_argument _ -> ());
  try
    ignore (Multi.run (det_cfg ()) []);
    Alcotest.fail "empty enclave admitted"
  with Invalid_argument _ -> ()

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "tenant"
    [
      ( "isolation",
        [
          qt prop_joint_matches_solo;
          Alcotest.test_case "quota shed isolates the offender" `Quick
            test_quota_shed_isolates_offender;
          Alcotest.test_case "cross-tenant ref rejected in-TEE" `Quick
            test_cross_tenant_ref_rejected_in_tee;
        ] );
      ( "attestation",
        [
          Alcotest.test_case "one bad tenant judged alone" `Quick
            test_one_bad_tenant_does_not_poison_the_rest;
          Alcotest.test_case "tenant keys scoped by id" `Quick test_tenant_keys_scoped;
        ] );
      ( "session",
        [
          Alcotest.test_case "1-tenant session = Runtime.run" `Quick
            test_single_tenant_session_matches_runtime_run;
          Alcotest.test_case "builder ids and validation" `Quick
            test_session_assigns_ids_and_validates;
        ] );
    ]
