(* Fleet-under-churn tests: failure-detector beat arithmetic at its
   exact boundaries, the key partitioner, and the headline robustness
   property — a churned fleet (kills, uplink partitions, stragglers,
   attested handoff) merges to egress byte-identical to the un-churned
   run, and the fleet verifier catches runs that cheat (dropped
   partitions, manifest-less failover). *)

module D = Sbt_core.Dataplane
module Runtime = Sbt_core.Runtime
module B = Sbt_workloads.Benchmarks
module F = Sbt_net.Frame
module Fault = Sbt_fault.Fault
module V = Sbt_attest.Verifier
module H = Sbt_attest.Handoff
module Detector = Sbt_fleet.Detector
module Partition = Sbt_fleet.Partition
module Fleet = Sbt_fleet.Fleet
module M = Sbt_obs.Metrics

let det_cfg () =
  Runtime.Config.make ~cores:4 ~deterministic:true ()

(* --- failure detector ------------------------------------------------------- *)

let test_detector_death_at_exact_boundary () =
  (* last heartbeat at beat 2, suspect_after = 3: suspicion from beat 3,
     death exactly at beat 5 = last + suspect_after, not a tick sooner. *)
  let d = Detector.create ~nodes:1 ~suspect_after:3 in
  for b = 0 to 2 do
    Detector.heartbeat d ~node:0 ~beat:b;
    Alcotest.(check (list int)) "alive while beating" [] (Detector.tick d ~beat:b)
  done;
  Alcotest.(check (list int)) "missed 1: no death" [] (Detector.tick d ~beat:3);
  (match Detector.verdict d ~node:0 with
  | Detector.Suspect { missed } -> Alcotest.(check int) "one missed beat" 1 missed
  | _ -> Alcotest.fail "expected Suspect after first missed beat");
  Alcotest.(check (list int)) "missed 2: no death" [] (Detector.tick d ~beat:4);
  Alcotest.(check (list int)) "missed 3 = suspect_after: dead" [ 0 ] (Detector.tick d ~beat:5);
  match Detector.verdict d ~node:0 with
  | Detector.Dead { declared_at } -> Alcotest.(check int) "declared at last+sa" 5 declared_at
  | _ -> Alcotest.fail "expected Dead"

let test_detector_late_heartbeat_cancels_suspicion () =
  (* One beat before the death boundary a heartbeat arrives: suspicion
     clears and no death is ever declared. *)
  let d = Detector.create ~nodes:1 ~suspect_after:3 in
  Detector.heartbeat d ~node:0 ~beat:0;
  ignore (Detector.tick d ~beat:0);
  ignore (Detector.tick d ~beat:1);
  ignore (Detector.tick d ~beat:2);
  (* next tick would declare death; the heartbeat lands first *)
  Detector.heartbeat d ~node:0 ~beat:3;
  Alcotest.(check (list int)) "saved by the bell" [] (Detector.tick d ~beat:3);
  Alcotest.(check bool) "alive" false (Detector.is_dead d ~node:0);
  Alcotest.(check int) "suspicion was raised" 1 (Detector.suspicions_raised d);
  Alcotest.(check int) "and cleared" 1 (Detector.suspicions_cleared d)

let test_detector_death_is_sticky_and_fences () =
  let d = Detector.create ~nodes:2 ~suspect_after:2 in
  Detector.heartbeat d ~node:0 ~beat:0;
  Detector.heartbeat d ~node:1 ~beat:0;
  ignore (Detector.tick d ~beat:0);
  ignore (Detector.tick d ~beat:1);
  Detector.heartbeat d ~node:1 ~beat:1 (* too late for the tick, fine for the next *);
  Alcotest.(check (list int)) "node 0 dead at 2" [ 0 ] (Detector.tick d ~beat:2);
  Detector.heartbeat d ~node:0 ~beat:3;
  Detector.heartbeat d ~node:0 ~beat:4;
  Alcotest.(check int) "late heartbeats fenced" 2 (Detector.fenced_heartbeats d);
  (match Detector.verdict d ~node:0 with
  | Detector.Dead { declared_at } -> Alcotest.(check int) "still dead at 2" 2 declared_at
  | _ -> Alcotest.fail "death must be sticky");
  Alcotest.check_raises "ticks must advance" (Invalid_argument "Detector.tick: beats must advance")
    (fun () -> ignore (Detector.tick d ~beat:2))

(* --- partitioner ------------------------------------------------------------ *)

let small_bench ?(windows = 4) ?(events_per_window = 400) ?(batch_events = 200) () =
  B.win_sum ~windows ~events_per_window ~batch_events ()

let test_partition_split_covers_and_routes () =
  let bench = small_bench () in
  let frames = B.frames bench in
  let schema = bench.B.pipeline.Sbt_core.Pipeline.schema in
  let parts =
    Partition.split ~parts:3 ~schema ~window_size:1000 ~window_slide:1000 ~batch_events:200
      frames
  in
  let events_of fs =
    List.fold_left
      (fun acc f -> match f with F.Events { events; _ } -> acc + events | _ -> acc)
      0 fs
  in
  let total = events_of frames in
  Alcotest.(check int) "no event lost or duplicated" total
    (Array.fold_left (fun acc fs -> acc + events_of fs) 0 parts);
  Array.iteri
    (fun p fs ->
      let wms = List.filter (function F.Watermark _ -> true | _ -> false) fs in
      Alcotest.(check int) "every watermark copied" 4 (List.length wms);
      List.iter
        (fun f ->
          match f with
          | F.Events { payload; _ } ->
              Array.iter
                (fun r ->
                  Alcotest.(check int) "record routed by key" p
                    (Partition.assign ~parts:3 r.(schema.Sbt_core.Event.key_field)))
                (F.unpack_events ~width:schema.Sbt_core.Event.width payload)
          | F.Watermark _ -> ())
        fs)
    parts

let test_partition_rejects_protected_frames () =
  let bench = small_bench () in
  let spec = { bench.B.spec with Sbt_workloads.Datagen.encrypted = true } in
  let frames = Sbt_workloads.Datagen.frames spec in
  let schema = bench.B.pipeline.Sbt_core.Pipeline.schema in
  Alcotest.check_raises "encrypted input rejected"
    (Invalid_argument
       "Partition.split: encrypted frame (partition at the source, before encryption)")
    (fun () ->
      ignore
        (Partition.split ~parts:2 ~schema ~window_size:1000 ~window_slide:1000
           ~batch_events:200 frames))

let test_partition_assign_total_on_negative_keys () =
  List.iter
    (fun k ->
      let p = Partition.assign ~parts:3 k in
      Alcotest.(check bool) "in range" true (p >= 0 && p < 3))
    [ Int32.min_int; -1l; 0l; 1l; Int32.max_int ]

(* --- fleet runs ------------------------------------------------------------- *)

let fleet_run ?(m = 3) ?(windows = 4) ?rogue_handoff ~scenario () =
  let bench = small_bench ~windows () in
  let frames = B.frames bench in
  Fleet.run ?rogue_handoff ~scenario ~nodes:m ~batch_events:200 (det_cfg ())
    bench.B.pipeline frames

let merged_obs (s : Fleet.summary) =
  List.map
    (fun (w, p, (r : D.sealed_result)) -> (w, p, r.D.cipher, r.D.tag, r.D.events))
    s.Fleet.merged

let test_clean_fleet_verifies () =
  let s = fleet_run ~scenario:(Fault.fleet_none ~suspect_after:2) () in
  Alcotest.(check bool) "fleet verifier accepts" true (V.fleet_ok s.Fleet.report);
  Alcotest.(check int) "every partition of every window present" (4 * 3)
    (List.length s.Fleet.merged);
  Alcotest.(check int) "no deaths" 0 s.Fleet.deaths;
  Alcotest.(check int) "no handoffs" 0 (List.length s.Fleet.handoffs);
  Alcotest.(check int) "3 partitions verified" 3 s.Fleet.report.V.partitions_present

let test_permanent_death_hands_off_and_matches_clean () =
  let clean = fleet_run ~scenario:(Fault.fleet_none ~suspect_after:2) () in
  let scenario =
    Fault.fleet_scenario ~suspect_after:2
      [ Fault.Kill { node = 1; at_beat = 1; permanent = true } ]
  in
  let churned = fleet_run ~scenario () in
  Alcotest.(check bool) "fleet verifier accepts the handoff" true
    (V.fleet_ok churned.Fleet.report);
  Alcotest.(check bool) "merged egress byte-identical to un-churned" true
    (merged_obs clean = merged_obs churned);
  Alcotest.(check int) "one death" 1 churned.Fleet.deaths;
  Alcotest.(check int) "one verified handoff" 1 churned.Fleet.report.V.handoffs_verified;
  Alcotest.(check bool) "suffix was re-ingested" true (churned.Fleet.replayed_frames > 0);
  (match churned.Fleet.handoffs with
  | [ (mh, _) ] ->
      Alcotest.(check int) "partition 1 handed off" 1 mh.H.partition;
      Alcotest.(check int) "donor is the dead edge" 1 mh.H.donor;
      Alcotest.(check int) "lowest eligible survivor adopts" 0 mh.H.recipient;
      Alcotest.(check int) "donor executed epoch 0" 0 mh.H.donor_epoch
  | hs -> Alcotest.failf "expected exactly one handoff, got %d" (List.length hs));
  match churned.Fleet.fates.(1) with
  | Fleet.Dead { declared_at; fenced_window = Some 1; recipient = Some 0 } ->
      Alcotest.(check int) "declared dead at kill + suspect_after" 3 declared_at
  | _ -> Alcotest.fail "edge 1 should be dead, fenced at window 1, adopted by edge 0"

let test_transient_crash_recovers_in_place () =
  let clean = fleet_run ~scenario:(Fault.fleet_none ~suspect_after:3) () in
  let scenario =
    Fault.fleet_scenario ~suspect_after:3 ~recover_after:2
      [ Fault.Kill { node = 2; at_beat = 1; permanent = false } ]
  in
  let churned = fleet_run ~scenario () in
  Alcotest.(check bool) "verifies" true (V.fleet_ok churned.Fleet.report);
  Alcotest.(check bool) "byte-identical to clean" true (merged_obs clean = merged_obs churned);
  Alcotest.(check int) "no death declared" 0 churned.Fleet.deaths;
  Alcotest.(check int) "no handoff" 0 (List.length churned.Fleet.handoffs);
  Alcotest.(check bool) "suspicion raised then cleared" true
    (churned.Fleet.suspicions_raised >= 1 && churned.Fleet.suspicions_cleared >= 1);
  match churned.Fleet.fates.(2) with
  | Fleet.Recovered { halted_at = 1; resumed_beat = 3 } -> ()
  | _ -> Alcotest.fail "edge 2 should have recovered in place"

let test_uplink_blip_survives () =
  let clean = fleet_run ~scenario:(Fault.fleet_none ~suspect_after:3) () in
  let scenario =
    Fault.fleet_scenario ~suspect_after:3
      [ Fault.Uplink_partition { node = 0; at_beat = 1; beats = 1 } ]
  in
  let churned = fleet_run ~scenario () in
  Alcotest.(check bool) "verifies" true (V.fleet_ok churned.Fleet.report);
  Alcotest.(check bool) "byte-identical to clean" true (merged_obs clean = merged_obs churned);
  Alcotest.(check int) "no death" 0 churned.Fleet.deaths;
  Alcotest.(check bool) "blip raised a suspicion" true (churned.Fleet.suspicions_raised >= 1)

let test_straggler_declared_dead_and_handed_off () =
  let clean = fleet_run ~scenario:(Fault.fleet_none ~suspect_after:2) () in
  let scenario =
    Fault.fleet_scenario ~suspect_after:2 [ Fault.Straggle { node = 2; factor = 4.0 } ]
  in
  let churned = fleet_run ~scenario () in
  Alcotest.(check bool) "verifies" true (V.fleet_ok churned.Fleet.report);
  Alcotest.(check bool) "byte-identical to clean" true (merged_obs clean = merged_obs churned);
  Alcotest.(check int) "straggler declared dead" 1 churned.Fleet.deaths;
  Alcotest.(check int) "its partition handed off" 1 (List.length churned.Fleet.handoffs)

let test_no_survivor_raises () =
  let scenario =
    Fault.fleet_scenario ~suspect_after:2
      [
        Fault.Kill { node = 0; at_beat = 1; permanent = true };
        Fault.Kill { node = 1; at_beat = 1; permanent = true };
      ]
  in
  match fleet_run ~m:2 ~scenario () with
  | _ -> Alcotest.fail "expected No_survivor"
  | exception Fleet.No_survivor { partition = _; beat } ->
      Alcotest.(check int) "declared at kill + suspect_after" 3 beat

(* --- fleet verifier negatives ----------------------------------------------- *)

let has_violation pred (fr : V.fleet_report) = List.exists pred fr.V.fleet_violations

let test_dropped_partition_is_flagged () =
  (* Present the clean fleet's audit with one partition's chains gone:
     Undeclared_loss at fleet scope. *)
  let bench = small_bench () in
  let cfg = det_cfg () in
  let s =
    Fleet.run ~scenario:(Fault.fleet_none ~suspect_after:2) ~nodes:3 ~batch_events:200 cfg
      bench.B.pipeline (B.frames bench)
  in
  let spec = Sbt_core.Pipeline.verifier_spec bench.B.pipeline in
  let key = cfg.Runtime.dp_config.D.egress_key in
  let edges =
    List.map
      (fun (c : V.edge_chains) ->
        { c with V.chains = List.filter (fun (p, _) -> p <> 2) c.V.chains })
      s.Fleet.edges
  in
  let report =
    V.verify_fleet ~key spec ~partitions:3 ~windows:s.Fleet.windows ~edges ~handoffs:[]
  in
  Alcotest.(check bool) "not ok" false (V.fleet_ok report);
  Alcotest.(check bool) "partition loss flagged" true
    (has_violation
       (function
         | V.Fleet_partition_loss { partition = 2; _ } -> true | _ -> false)
       report)

let test_omitted_handoff_manifest_is_flagged () =
  (* The genuine churned run, minus its handoff manifest: the stitch
     loses its authority and the verifier must refuse the fleet. *)
  let scenario =
    Fault.fleet_scenario ~suspect_after:2
      [ Fault.Kill { node = 1; at_beat = 1; permanent = true } ]
  in
  let bench = small_bench () in
  let cfg = det_cfg () in
  let s =
    Fleet.run ~scenario ~nodes:3 ~batch_events:200 cfg bench.B.pipeline (B.frames bench)
  in
  Alcotest.(check bool) "with manifest: accepted" true (V.fleet_ok s.Fleet.report);
  let spec = Sbt_core.Pipeline.verifier_spec bench.B.pipeline in
  let key = cfg.Runtime.dp_config.D.egress_key in
  let report =
    V.verify_fleet ~key spec ~partitions:3 ~windows:s.Fleet.windows ~edges:s.Fleet.edges
      ~handoffs:[]
  in
  Alcotest.(check bool) "without manifest: refused" false (V.fleet_ok report);
  Alcotest.(check bool) "unattested handoff flagged" true
    (has_violation
       (function
         | V.Handoff_unattested { partition = 1; donor = 1; recipient = 0 } -> true
         | V.Handoff_mismatch { partition = 1; _ } -> true
         | _ -> false)
       report)

let test_rogue_handoff_is_flagged () =
  let scenario =
    Fault.fleet_scenario ~suspect_after:2
      [ Fault.Kill { node = 1; at_beat = 1; permanent = true } ]
  in
  let clean = fleet_run ~scenario:(Fault.fleet_none ~suspect_after:2) () in
  let rogue = fleet_run ~rogue_handoff:true ~scenario () in
  Alcotest.(check bool) "fleet verifier rejects" false (V.fleet_ok rogue.Fleet.report);
  Alcotest.(check bool) "unattested handoff flagged" true
    (has_violation (function V.Handoff_unattested _ -> true | _ -> false) rogue.Fleet.report);
  Alcotest.(check bool) "cross-edge duplicate flagged" true
    (has_violation (function V.Cross_edge_duplicate _ -> true | _ -> false) rogue.Fleet.report);
  Alcotest.(check int) "no manifest sealed" 0 (List.length rogue.Fleet.handoffs);
  Alcotest.(check bool) "merged output carries the duplicates" true
    (List.length rogue.Fleet.merged > List.length clean.Fleet.merged)

(* --- per-node metric scopes -------------------------------------------------- *)

let test_fleet_metrics_are_scoped_per_edge () =
  let scenario =
    Fault.fleet_scenario ~suspect_after:2
      [ Fault.Kill { node = 1; at_beat = 1; permanent = true } ]
  in
  let s = fleet_run ~scenario () in
  let reg = s.Fleet.registry in
  Alcotest.(check bool) "edge0 engine counters scoped" true
    (M.find_counter reg "edge0.control.frames" > 0);
  Alcotest.(check bool) "edge2 engine counters scoped" true
    (M.find_counter reg "edge2.control.frames" > 0);
  Alcotest.(check int) "fleet-scope death counter" 1 (M.find_counter reg "fleet.deaths");
  Alcotest.(check int) "fleet-scope handoff counter" 1
    (M.find_counter reg "fleet.handoffs_sealed")

(* --- the headline property --------------------------------------------------- *)

let prop_churned_fleet_matches_clean =
  QCheck.Test.make
    ~name:"churned fleet merges byte-identical to un-churned (M in {2,3,5})" ~count:8
    QCheck.(
      quad (int_range 0 2) (int_range 0 4) (int_range 0 2) QCheck.bool)
    (fun (m_i, node, at_beat, permanent) ->
      let m = List.nth [ 2; 3; 5 ] m_i in
      let node = node mod m in
      let scenario =
        Fault.fleet_scenario ~suspect_after:2 ~recover_after:1
          [ Fault.Kill { node; at_beat; permanent } ]
      in
      let clean = fleet_run ~m ~scenario:(Fault.fleet_none ~suspect_after:2) () in
      let churned = fleet_run ~m ~scenario () in
      let same = merged_obs clean = merged_obs churned in
      let verified = V.fleet_ok churned.Fleet.report in
      if not (same && verified) then
        QCheck.Test.fail_reportf
          "divergence: m=%d node=%d at_beat=%d permanent=%b same=%b verified=%b deaths=%d"
          m node at_beat permanent same verified churned.Fleet.deaths;
      true)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "fleet"
    [
      ( "detector",
        [
          Alcotest.test_case "death at exact boundary" `Quick test_detector_death_at_exact_boundary;
          Alcotest.test_case "late heartbeat cancels suspicion" `Quick
            test_detector_late_heartbeat_cancels_suspicion;
          Alcotest.test_case "death sticky, late beats fenced" `Quick
            test_detector_death_is_sticky_and_fences;
        ] );
      ( "partition",
        [
          Alcotest.test_case "split covers and routes by key" `Quick
            test_partition_split_covers_and_routes;
          Alcotest.test_case "protected frames rejected" `Quick
            test_partition_rejects_protected_frames;
          Alcotest.test_case "assign total on negative keys" `Quick
            test_partition_assign_total_on_negative_keys;
        ] );
      ( "fleet",
        [
          Alcotest.test_case "clean fleet verifies" `Quick test_clean_fleet_verifies;
          Alcotest.test_case "permanent death: attested handoff, egress identical" `Quick
            test_permanent_death_hands_off_and_matches_clean;
          Alcotest.test_case "transient crash recovers in place" `Quick
            test_transient_crash_recovers_in_place;
          Alcotest.test_case "uplink blip survives" `Quick test_uplink_blip_survives;
          Alcotest.test_case "straggler declared dead and handed off" `Quick
            test_straggler_declared_dead_and_handed_off;
          Alcotest.test_case "no survivor raises" `Quick test_no_survivor_raises;
          Alcotest.test_case "metrics scoped per edge" `Quick
            test_fleet_metrics_are_scoped_per_edge;
          qt prop_churned_fleet_matches_clean;
        ] );
      ( "verifier negatives",
        [
          Alcotest.test_case "dropped partition flagged" `Quick test_dropped_partition_is_flagged;
          Alcotest.test_case "omitted handoff manifest flagged" `Quick
            test_omitted_handoff_manifest_is_flagged;
          Alcotest.test_case "rogue handoff flagged" `Quick test_rogue_handoff_is_flagged;
        ] );
    ]
