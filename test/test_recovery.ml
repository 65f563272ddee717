(* Crash-recovery tests: sealed checkpoint integrity (roundtrip identity,
   tamper and rollback rejection), the data plane's checkpoint/restore
   primitive, and the headline exactly-once property — a crashed and
   recovered supervised run produces results, audit bytes and verdicts
   identical to an uninterrupted run with the same checkpoint interval. *)

module D = Sbt_core.Dataplane
module Runtime = Sbt_core.Runtime
module B = Sbt_workloads.Benchmarks
module Fault = Sbt_fault.Fault
module Seal = Sbt_recovery.Seal
module Store = Sbt_recovery.Store
module Log = Sbt_attest.Log
module V = Sbt_attest.Verifier

let device_key = Bytes.of_string "test-device-key!"

(* --- seal/unseal properties ------------------------------------------------ *)

let prop_seal_roundtrip =
  QCheck.Test.make ~name:"seal -> unseal is the identity" ~count:100
    QCheck.(pair (string_of_size Gen.(0 -- 2048)) (int_range 0 10_000))
    (fun (payload, seq) ->
      let blob = Seal.seal ~device_key ~seq (Bytes.of_string payload) in
      let seq', plain = Seal.unseal ~device_key blob in
      seq' = seq && Bytes.to_string plain = payload)

let prop_seal_tamper =
  QCheck.Test.make ~name:"any flipped byte -> Tamper" ~count:100
    QCheck.(pair (string_of_size Gen.(1 -- 512)) small_nat)
    (fun (payload, salt) ->
      let blob = Seal.seal ~device_key ~seq:3 (Bytes.of_string payload) in
      let at = salt mod Bytes.length blob in
      Bytes.set blob at (Char.chr (Char.code (Bytes.get blob at) lxor 0x01));
      match Seal.unseal ~device_key blob with
      | _ -> false
      | exception Seal.Tamper -> true)

let prop_seal_rollback =
  QCheck.Test.make ~name:"stale sequence -> Rollback" ~count:100
    QCheck.(pair (string_of_size Gen.(0 -- 256)) (pair (int_range 0 50) (int_range 1 50)))
    (fun (payload, (seq, ahead)) ->
      let blob = Seal.seal ~device_key ~seq (Bytes.of_string payload) in
      match Seal.unseal ~device_key ~expect_at_least:(seq + ahead) blob with
      | _ -> false
      | exception Seal.Rollback { got; expected } -> got = seq && expected = seq + ahead)

let test_wrong_key_is_tamper () =
  let blob = Seal.seal ~device_key ~seq:0 (Bytes.of_string "state") in
  Alcotest.check_raises "other device key rejects" Seal.Tamper (fun () ->
      ignore (Seal.unseal ~device_key:(Bytes.of_string "other-device-key") blob))

(* --- the data-plane checkpoint primitive ----------------------------------- *)

let test_dataplane_checkpoint_roundtrip () =
  let cfg = D.Config.make () in
  let dp = D.create cfg in
  let control = Bytes.of_string "control-section" in
  let blob, seq =
    match D.call dp (D.R_checkpoint { control; watermark = 42 }) with
    | D.Rs_checkpoint { blob; seq } -> (blob, seq)
    | _ -> Alcotest.fail "expected Rs_checkpoint"
  in
  Alcotest.(check int) "first checkpoint is seq 0" 0 seq;
  let restored = D.restore cfg ~expect_seq:0 blob in
  Alcotest.(check string) "control section returned verbatim"
    (Bytes.to_string control)
    (Bytes.to_string restored.D.control);
  Alcotest.(check int) "checkpoint seq" 0 restored.D.ckpt_seq;
  (* The Checkpoint audit record is in the flushed (durable) stream. *)
  let records =
    List.concat_map
      (Log.open_batch ~key:cfg.D.egress_key)
      (D.uploaded_batches dp)
  in
  let ckpts =
    List.filter_map
      (function Sbt_attest.Record.Checkpoint { seq; watermark; _ } -> Some (seq, watermark) | _ -> None)
      records
  in
  Alcotest.(check (list (pair int int))) "checkpoint attested in the log" [ (0, 42) ] ckpts

let test_dataplane_restore_rejects () =
  let cfg = D.Config.make () in
  let dp = D.create cfg in
  let blob =
    match D.call dp (D.R_checkpoint { control = Bytes.empty; watermark = 0 }) with
    | D.Rs_checkpoint { blob; _ } -> blob
    | _ -> Alcotest.fail "expected Rs_checkpoint"
  in
  let tampered = Bytes.copy blob in
  let at = Bytes.length tampered / 2 in
  Bytes.set tampered at (Char.chr (Char.code (Bytes.get tampered at) lxor 0x80));
  Alcotest.check_raises "tampered blob" Seal.Tamper (fun () ->
      ignore (D.restore cfg ~expect_seq:0 tampered));
  Alcotest.check_raises "rolled-back blob"
    (Seal.Rollback { got = 0; expected = 3 })
    (fun () -> ignore (D.restore cfg ~expect_seq:3 blob))

(* --- supervised runs -------------------------------------------------------- *)

let det_cfg ?(fault_plan = Fault.none) () =
  Runtime.Config.make ~cores:4 ~deterministic:true ~fault_plan ()

let supervised_observables (s : Runtime.supervised) =
  ( s.Runtime.sv_results,
    List.map (fun (b : Log.batch) -> (b.Log.seq, b.Log.payload, b.Log.tag)) s.Runtime.sv_audit
  )

let bench_of = function 0 -> B.win_sum | _ -> B.topk

let test_supervised_clean_matches_plain () =
  (* No crash: a supervised run's stitched results equal a plain run's
     (checkpointing adds audit records, never changes results). *)
  let bench = B.win_sum ~windows:3 ~events_per_window:600 ~batch_events:200 () in
  let frames = B.frames bench in
  let cfg = det_cfg () in
  let plain = Runtime.run cfg bench.B.pipeline frames in
  let s = Runtime.run_supervised ~ckpt_every:1 cfg bench.B.pipeline frames in
  Alcotest.(check int) "single epoch" 1 s.Runtime.sv_epoch_count;
  Alcotest.(check (list int)) "no crash sites" []
    (List.map Hashtbl.hash s.Runtime.sv_crash_sites);
  Alcotest.(check bool) "checkpoints taken" true (s.Runtime.sv_checkpoints > 0);
  Alcotest.(check bool) "results identical to plain run" true
    (plain.Runtime.results = s.Runtime.sv_results);
  Alcotest.(check bool) "multi-epoch verifier accepts" true (V.ok s.Runtime.sv_report)

let equivalent_after_crash ~bench_i ~site ~after ~ckpt_every =
  let bench = bench_of bench_i ~windows:4 ~events_per_window:500 ~batch_events:250 () in
  let frames = B.frames bench in
  let clean_cfg = det_cfg () in
  let clean = Runtime.run_supervised ~ckpt_every clean_cfg bench.B.pipeline frames in
  let crash_plan = Fault.with_crash Fault.none ~site ~after_tasks:after in
  let crash_cfg = det_cfg ~fault_plan:crash_plan () in
  let crashed = Runtime.run_supervised ~ckpt_every crash_cfg bench.B.pipeline frames in
  let ok =
    supervised_observables clean = supervised_observables crashed
    && V.ok clean.Runtime.sv_report
    && V.ok crashed.Runtime.sv_report
  in
  if not ok then
    QCheck.Test.fail_reportf
      "divergence: bench=%d site=%s after=%d every=%d epochs=%d/%d replayed=%d@."
      bench_i (Fault.site_name site) after ckpt_every clean.Runtime.sv_epoch_count
      crashed.Runtime.sv_epoch_count crashed.Runtime.sv_replayed_frames;
  true

let prop_crash_equivalence =
  QCheck.Test.make
    ~name:"crashed+recovered run is byte-identical to uninterrupted (same interval)"
    ~count:10
    QCheck.(
      quad (int_range 0 1) (int_range 0 1) (int_range 1 40) (int_range 1 2))
    (fun (bench_i, site_i, after, ckpt_every) ->
      let site = if site_i = 0 then Fault.Crash_control else Fault.Crash_reboot in
      equivalent_after_crash ~bench_i ~site ~after ~ckpt_every)

let test_crash_recovers_deterministic () =
  (* A pinned mid-run control crash: recovery actually happens (two
     epochs, frames replayed) and the stitched output is identical. *)
  let bench = B.win_sum ~windows:4 ~events_per_window:500 ~batch_events:250 () in
  let frames = B.frames bench in
  let clean = Runtime.run_supervised ~ckpt_every:1 (det_cfg ()) bench.B.pipeline frames in
  let plan = Fault.with_crash Fault.none ~site:Fault.Crash_control ~after_tasks:12 in
  let crashed =
    Runtime.run_supervised ~ckpt_every:1 (det_cfg ~fault_plan:plan ()) bench.B.pipeline frames
  in
  Alcotest.(check int) "two epochs" 2 crashed.Runtime.sv_epoch_count;
  Alcotest.(check bool) "frames were replayed" true (crashed.Runtime.sv_replayed_frames > 0);
  Alcotest.(check bool) "observables identical" true
    (supervised_observables clean = supervised_observables crashed);
  Alcotest.(check bool) "verifier accepts the stitched epochs" true
    (V.ok crashed.Runtime.sv_report)

let test_reboot_after_checkpoint_recovers () =
  let bench = B.topk ~windows:4 ~events_per_window:500 ~batch_events:250 () in
  let frames = B.frames bench in
  let clean = Runtime.run_supervised ~ckpt_every:2 (det_cfg ()) bench.B.pipeline frames in
  let plan = Fault.with_crash Fault.none ~site:Fault.Crash_reboot ~after_tasks:1 in
  let crashed =
    Runtime.run_supervised ~ckpt_every:2 (det_cfg ~fault_plan:plan ()) bench.B.pipeline frames
  in
  Alcotest.(check int) "two epochs" 2 crashed.Runtime.sv_epoch_count;
  Alcotest.(check bool) "observables identical" true
    (supervised_observables clean = supervised_observables crashed);
  Alcotest.(check bool) "verifier accepts" true (V.ok crashed.Runtime.sv_report)

(* Batch stages run fused on every boot: a crashed and recovered fps run
   is byte-identical to the uninterrupted one, and the epoch that
   completes the run after the restart still emits composite records. *)
let test_fused_crash_recovers () =
  let bench = B.fps ~windows:4 ~events_per_window:2_000 ~batch_events:250 () in
  let frames = B.frames bench in
  let clean = Runtime.run_supervised ~ckpt_every:1 (det_cfg ()) bench.B.pipeline frames in
  let plan = Fault.with_crash Fault.none ~site:Fault.Crash_control ~after_tasks:20 in
  let crashed =
    Runtime.run_supervised ~ckpt_every:1 (det_cfg ~fault_plan:plan ()) bench.B.pipeline frames
  in
  Alcotest.(check int) "two epochs" 2 crashed.Runtime.sv_epoch_count;
  Alcotest.(check bool) "observables identical" true
    (supervised_observables clean = supervised_observables crashed);
  Alcotest.(check bool) "verifier accepts" true (V.ok crashed.Runtime.sv_report);
  let key = (det_cfg ()).Runtime.dp_config.D.egress_key in
  let fused batches =
    List.length
      (List.filter
         (function Sbt_attest.Record.Fused _ -> true | _ -> false)
         (List.concat_map (Log.open_batch ~key) batches))
  in
  match List.rev crashed.Runtime.sv_epochs with
  | (_, last) :: _ :: _ ->
      Alcotest.(check bool) "recovered epoch holds Fused records" true (fused last > 0)
  | _ -> Alcotest.fail "expected two epochs"

let test_restart_budget_exhausted () =
  let bench = B.win_sum ~windows:2 ~events_per_window:300 ~batch_events:150 () in
  let plan = Fault.with_crash Fault.none ~site:Fault.Crash_control ~after_tasks:3 in
  let cfg = det_cfg ~fault_plan:plan () in
  match Runtime.run_supervised ~max_restarts:0 ~ckpt_every:1 cfg bench.B.pipeline (B.frames bench) with
  | _ -> Alcotest.fail "expected Crashed to escape with max_restarts = 0"
  | exception Runtime.Crashed { site; _ } ->
      Alcotest.(check string) "crash site" "crash-control" (Fault.site_name site)

(* A checkpoint carries no late-data bookkeeping and no session-window
   table, so both checkpointed entry points refuse a non-silent late
   policy and a session-gap pipeline up front instead of recording a run
   whose resumed boots could not reproduce them. *)
let test_checkpoint_rejects_uncarried_state () =
  let bench = B.vitals ~windows:2 ~events_per_window:1_000 ~batch_events:250 ~encrypted:false () in
  let frames = B.frames bench in
  let rejected =
    Invalid_argument
      "Runtime: checkpointed runs need the silent late policy and fixed windows (a checkpoint \
       carries no late-data or session-window state)"
  in
  let sessions = Sbt_core.Pipeline.with_session_gap bench.B.pipeline ~gap_ticks:400 in
  List.iter
    (fun (what, late_policy, pipeline) ->
      let cfg = Runtime.Config.make ~cores:4 ~deterministic:true ~late_policy () in
      Alcotest.check_raises ("run_supervised: " ^ what) rejected (fun () ->
          ignore (Runtime.run_supervised ~ckpt_every:1 cfg pipeline frames));
      Alcotest.check_raises ("Fleet.run: " ^ what) rejected (fun () ->
          ignore
            (Sbt_fleet.Fleet.run ~scenario:(Fault.fleet_none ~suspect_after:2) ~nodes:2
               ~batch_events:250 cfg pipeline frames)))
    [
      ("drop-declare", D.Drop_declare, bench.B.pipeline);
      ("retract-reemit", D.Retract_reemit, bench.B.pipeline);
      ("session gap", D.Silent, sessions);
    ]

(* --- the normal-world checkpoint store -------------------------------------- *)

let test_store_latest_and_rollback () =
  let st = Store.create () in
  Store.put st ~seq:0 (Bytes.of_string "a");
  Store.put st ~seq:1 (Bytes.of_string "b");
  Store.put st ~seq:2 (Bytes.of_string "c");
  (match Store.latest st with
  | Some (2, b) -> Alcotest.(check string) "newest blob" "c" (Bytes.to_string b)
  | _ -> Alcotest.fail "latest should be seq 2");
  Store.truncate_to st ~seq:0;
  (match Store.latest st with
  | Some (0, b) -> Alcotest.(check string) "rolled back to seq 0" "a" (Bytes.to_string b)
  | _ -> Alcotest.fail "latest should be seq 0 after truncation")

let test_rolled_back_store_is_rejected () =
  (* End-to-end rollback: the sealed blob is authentic but stale relative
     to what the signed audit log attests — restore must refuse it. *)
  let cfg = D.Config.make () in
  let dp = D.create cfg in
  let b0 =
    match D.call dp (D.R_checkpoint { control = Bytes.empty; watermark = 1 }) with
    | D.Rs_checkpoint { blob; _ } -> blob
    | _ -> Alcotest.fail "expected Rs_checkpoint"
  in
  (match D.call dp (D.R_checkpoint { control = Bytes.empty; watermark = 2 }) with
  | D.Rs_checkpoint { seq; _ } -> Alcotest.(check int) "second seq" 1 seq
  | _ -> Alcotest.fail "expected Rs_checkpoint");
  (* The log now attests checkpoint 1; presenting blob 0 is a rollback. *)
  let attested =
    List.fold_left
      (fun acc r ->
        match r with Sbt_attest.Record.Checkpoint { seq; _ } -> max acc seq | _ -> acc)
      (-1)
      (List.concat_map (Log.open_batch ~key:cfg.D.egress_key) (D.uploaded_batches dp))
  in
  Alcotest.(check int) "attested checkpoint" 1 attested;
  Alcotest.check_raises "stale blob rejected"
    (Seal.Rollback { got = 0; expected = 1 })
    (fun () -> ignore (D.restore cfg ~expect_seq:attested b0))

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "recovery"
    [
      ( "seal",
        [
          qt prop_seal_roundtrip;
          qt prop_seal_tamper;
          qt prop_seal_rollback;
          Alcotest.test_case "wrong key" `Quick test_wrong_key_is_tamper;
        ] );
      ( "dataplane",
        [
          Alcotest.test_case "checkpoint roundtrip" `Quick test_dataplane_checkpoint_roundtrip;
          Alcotest.test_case "restore rejects" `Quick test_dataplane_restore_rejects;
        ] );
      ( "supervised",
        [
          Alcotest.test_case "clean supervised = plain" `Quick test_supervised_clean_matches_plain;
          qt prop_crash_equivalence;
          Alcotest.test_case "control crash recovers" `Quick test_crash_recovers_deterministic;
          Alcotest.test_case "reboot crash recovers" `Quick test_reboot_after_checkpoint_recovers;
          Alcotest.test_case "fused crash recovers" `Quick test_fused_crash_recovers;
          Alcotest.test_case "restart budget" `Quick test_restart_budget_exhausted;
          Alcotest.test_case "checkpoint rejects uncarried state" `Quick
            test_checkpoint_rejects_uncarried_state;
        ] );
      ( "store",
        [
          Alcotest.test_case "latest + truncate" `Quick test_store_latest_and_rollback;
          Alcotest.test_case "rollback rejected end-to-end" `Quick test_rolled_back_store_is_rejected;
        ] );
    ]
