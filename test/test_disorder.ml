(* Out-of-order robustness tests: deterministic lateness injection in
   Datagen, watermark-strategy boundaries (a record exactly at the
   watermark is not late), session-window gap edges, negative verifier
   cases (undeclared late handling, tampered correction generations,
   retraction without reemit), and the headline convergence property —
   under retract-and-reemit a disorder-permuted input converges to final
   corrected sealed results byte-identical to the in-order run. *)

module D = Sbt_core.Dataplane
module Runtime = Sbt_core.Runtime
module Session = Sbt_core.Session
module Runner = Sbt_core.Runner
module P = Sbt_core.Pipeline
module B = Sbt_workloads.Benchmarks
module Datagen = Sbt_workloads.Datagen
module Fault = Sbt_fault.Fault
module V = Sbt_attest.Verifier
module Record = Sbt_attest.Record
module Log = Sbt_attest.Log
module Frame = Sbt_net.Frame

let det_cfg ?(late = D.Silent) () =
  Runtime.Config.make ~cores:4 ~deterministic:true ~late_policy:late ()

let egress_key = (det_cfg ()).Runtime.dp_config.D.egress_key

let run ?late pipe frames =
  Session.create (det_cfg ?late ())
  |> Session.add_tenant ~pipeline:pipe ~source:frames
  |> Session.run_single

let records_of (r : Runtime.run_result) =
  List.concat_map (fun b -> Log.open_batch ~key:egress_key b) r.Runtime.audit

let sorted_results (r : Runtime.run_result) =
  List.sort (fun (a, _) (b, _) -> compare a b) r.Runtime.results

let merged (r : Runtime.run_result) =
  Runner.merge_corrections ~egress_key (sorted_results r) r.Runtime.corrections

(* Fresh constructor per call: the vitals generator closes over mutable
   random-walk state, so sharing one [B.t] across two [Datagen.frames]
   calls would leak state from the first stream into the second. *)
let vitals_frames ?(disorder = Fault.none) ?(watermark = Datagen.Punctuation) () =
  let b = B.vitals ~windows:3 ~events_per_window:600 ~batch_events:200 () in
  Datagen.frames { b.B.spec with Datagen.disorder; watermark }

let all_rows frames =
  List.concat_map
    (function
      | Frame.Events { payload; _ } ->
          Array.to_list (Frame.unpack_events ~width:3 payload)
      | Frame.Watermark _ -> [])
    frames
  |> List.sort compare

let watermarks frames =
  List.filter_map (function Frame.Watermark { value; _ } -> Some value | _ -> None) frames

(* No event arrives behind the watermark already emitted before it. *)
let no_late frames =
  let wm = ref (-1) in
  List.for_all
    (function
      | Frame.Watermark { value; _ } ->
          wm := max !wm value;
          true
      | Frame.Events { payload; _ } ->
          Array.for_all
            (fun row -> Int32.to_int row.(2) >= !wm)
            (Frame.unpack_events ~width:3 payload))
    frames

(* --- lateness-distribution determinism -------------------------------------- *)

let test_disorder_deterministic () =
  let plan = Fault.disorder_plan ~seed:99L ~rate:0.3 () in
  let a = vitals_frames ~disorder:plan () in
  let b = vitals_frames ~disorder:plan () in
  Alcotest.(check bool) "same plan, same frames" true (a = b);
  let zero = vitals_frames ~disorder:(Fault.disorder_plan ~seed:99L ~rate:0.0 ()) () in
  let none = vitals_frames ~disorder:Fault.none () in
  Alcotest.(check bool) "rate 0 is the identity permutation" true (zero = none);
  Alcotest.(check bool) "rate 0.3 really permutes" true (a <> none);
  Alcotest.(check bool) "permutation preserves the event multiset" true
    (all_rows a = all_rows none);
  let other = vitals_frames ~disorder:(Fault.disorder_plan ~seed:100L ~rate:0.3 ()) () in
  Alcotest.(check bool) "different seed, different permutation" true (a <> other)

let test_watermarks_monotone_and_final () =
  let check_frames label frames =
    let wms = watermarks frames in
    Alcotest.(check bool) (label ^ ": watermarks monotone") true
      (fst
         (List.fold_left (fun (ok, prev) v -> (ok && v >= prev, v)) (true, min_int) wms));
    let spec = Datagen.default_spec () in
    ignore spec;
    Alcotest.(check bool) (label ^ ": final watermark closes the stream") true
      (List.rev wms |> List.hd = 3 * Sbt_core.Event.ticks_per_second)
  in
  check_frames "punctuation in-order" (vitals_frames ());
  check_frames "punctuation disordered"
    (vitals_frames ~disorder:(Fault.disorder_plan ~seed:5L ~rate:0.3 ()) ());
  check_frames "heuristic disordered"
    (vitals_frames
       ~disorder:(Fault.disorder_plan ~seed:5L ~rate:0.3 ())
       ~watermark:(Datagen.Heuristic 0) ())

let test_punctuation_never_late () =
  let frames =
    vitals_frames ~disorder:(Fault.disorder_plan ~seed:7L ~rate:0.4 ()) ()
  in
  Alcotest.(check bool) "punctuation admits no late data" true (no_late frames)

let test_heuristic_bound_controls_lateness () =
  let plan = Fault.disorder_plan ~seed:7L ~rate:0.4 () in
  let b = B.vitals ~windows:3 ~events_per_window:600 ~batch_events:200 () in
  let covering =
    Datagen.frames
      {
        b.B.spec with
        Datagen.disorder = plan;
        watermark = Datagen.Heuristic b.B.spec.Datagen.max_lateness_ticks;
      }
  in
  Alcotest.(check bool) "bound >= max lateness: nothing is late" true
    (no_late covering);
  let tight =
    vitals_frames ~disorder:plan ~watermark:(Datagen.Heuristic 0) ()
  in
  Alcotest.(check bool) "bound 0 under real disorder: late data exists" false
    (no_late tight)

(* --- watermark boundary: a record exactly at the watermark is not late ------- *)

let pipe_1k = P.vitals ~window_size_ticks:1_000 ()

let mk_events ~seq rows =
  let records =
    Array.of_list (List.map (fun (k, v, ts) -> [| Int32.of_int k; Int32.of_int v; Int32.of_int ts |]) rows)
  in
  let windows =
    List.sort_uniq compare (List.map (fun (_, _, ts) -> ts / 1_000) rows)
  in
  Frame.Events
    {
      seq;
      stream = 0;
      events = Array.length records;
      windows;
      payload = Frame.pack_events ~width:3 records;
      encrypted = false;
      mac = Bytes.empty;
    }

(* Window 0 closes at watermark 1000; the follow-up batch carries one
   record exactly at the watermark (window 1: on time) and one just
   behind it (window 0: late). *)
let boundary_frames =
  [
    mk_events ~seq:0 [ (1, 10, 0); (1, 20, 10); (1, 30, 500) ];
    Frame.watermark ~seq:0 ~value:1_000 ();
    mk_events ~seq:1 [ (1, 40, 1_000); (1, 50, 999) ];
    Frame.watermark ~last:1_000 ~seq:1 ~value:2_000 ();
  ]

let test_boundary_record_not_late () =
  let r = run ~late:D.Drop_declare pipe_1k boundary_frames in
  let report = V.verify r.Runtime.verifier_spec (records_of r) in
  Alcotest.(check bool) "drop+declare verifies" true (V.ok report);
  Alcotest.(check int) "exactly one late drop declared" 1 report.V.late_drops;
  Alcotest.(check int) "only the behind-watermark record is late" 1 report.V.late_events;
  Alcotest.(check bool) "the late window is the degraded one" true
    (List.mem 0 report.V.degraded_windows);
  Alcotest.(check (list int)) "both windows still egress" [ 0; 1 ]
    (List.map fst (sorted_results r));
  (* the at-watermark record reached window 1's result *)
  let w1 = List.assoc 1 (sorted_results r) in
  Alcotest.(check int) "window 1 averaged its on-time record" 1 w1.D.events

let test_silent_policy_is_caught () =
  (* The historical silent policy cannot hide late data from the
     verifier: the segment's audit record names the late uArray, nothing
     consumes or declares it, and the sweep flags the vanished dataflow.
     That detectability is what makes the two attested policies above
     worth declaring. *)
  let r = run ~late:D.Silent pipe_1k boundary_frames in
  let report = V.verify r.Runtime.verifier_spec (records_of r) in
  Alcotest.(check bool) "silent discard does not verify" false (V.ok report);
  Alcotest.(check bool) "flagged as unprocessed window data" true
    (List.exists
       (function V.Unprocessed_window_data { window = 0; _ } -> true | _ -> false)
       report.V.violations);
  Alcotest.(check int) "no late-handling records" 0 report.V.late_drops;
  Alcotest.(check int) "no corrections" 0 report.V.corrections

(* --- session windows --------------------------------------------------------- *)

let session_frames rows ~wm =
  [ mk_events ~seq:0 rows; Frame.watermark ~seq:0 ~value:wm () ]

let test_session_gap_edges () =
  let pipe = P.with_session_gap pipe_1k ~gap_ticks:100 in
  (* gaps of exactly [gap] stay in-session; gap+1 opens a new one *)
  let r =
    run pipe (session_frames [ (1, 10, 0); (1, 20, 100); (1, 30, 201) ] ~wm:201)
  in
  Alcotest.(check (list int)) "delta = gap extends, delta = gap+1 splits" [ 0; 1 ]
    (List.map fst (sorted_results r));
  let r2 =
    run pipe
      (session_frames
         [ (1, 10, 0); (1, 20, 10); (2, 30, 300); (2, 40, 310); (3, 50, 700) ]
         ~wm:700)
  in
  Alcotest.(check (list int)) "three idle gaps, three sessions" [ 0; 1; 2 ]
    (List.map fst (sorted_results r2));
  let report = V.verify r2.Runtime.verifier_spec (records_of r2) in
  Alcotest.(check bool) "session run verifies in session mode" true (V.ok report);
  Alcotest.(check int) "all emitted sessions judged" 3 report.V.windows_verified

let test_session_requires_in_order () =
  let pipe = P.with_session_gap pipe_1k ~gap_ticks:100 in
  try
    ignore (run pipe (session_frames [ (1, 10, 500); (1, 20, 0) ] ~wm:500));
    Alcotest.fail "event-time regression admitted in session mode"
  with D.Rejected _ -> ()

(* --- negative verifier cases -------------------------------------------------- *)

(* A run that actually produces late data and (under retract-and-reemit)
   corrections: real disorder behind a zero-slack heuristic watermark. *)
let disordered_frames () =
  vitals_frames
    ~disorder:(Fault.disorder_plan ~seed:21L ~rate:0.25 ())
    ~watermark:(Datagen.Heuristic 0) ()

let test_undeclared_late_drop_flagged () =
  let r = run ~late:D.Drop_declare (P.vitals ()) (disordered_frames ()) in
  let records = records_of r in
  (* the honest declaration verifies... *)
  let honest = V.verify r.Runtime.verifier_spec records in
  Alcotest.(check bool) "declared drop+declare verifies" true (V.ok honest);
  Alcotest.(check bool) "late drops were really declared" true (honest.V.late_drops > 0);
  (* ...but the same log against a quote claiming the silent policy is a
     violation: the edge handled disorder, not the way it promised. *)
  let silent_spec = P.verifier_spec (P.vitals ()) in
  let report = V.verify silent_spec records in
  Alcotest.(check bool) "undeclared handling rejected" false (V.ok report);
  Alcotest.(check bool) "flagged as Undeclared_late_handling" true
    (List.exists
       (function V.Undeclared_late_handling _ -> true | _ -> false)
       report.V.violations)

let test_tampered_correction_flagged () =
  let r = run ~late:D.Retract_reemit (P.vitals ()) (disordered_frames ()) in
  Alcotest.(check bool) "disorder produced corrections" true (r.Runtime.corrections <> []);
  let records = records_of r in
  let honest = V.verify r.Runtime.verifier_spec records in
  Alcotest.(check bool) "honest corrections verify" true (V.ok honest);
  Alcotest.(check int) "report counts every correction"
    (List.length r.Runtime.corrections)
    honest.V.corrections;
  let bumped = ref false in
  let tampered =
    List.map
      (function
        | Record.Correction { ts; uarray; win_no; gen } when not !bumped ->
            bumped := true;
            Record.Correction { ts; uarray; win_no; gen = gen + 1 }
        | rec_ -> rec_)
      records
  in
  Alcotest.(check bool) "a correction was present to tamper" true !bumped;
  let report = V.verify r.Runtime.verifier_spec tampered in
  Alcotest.(check bool) "tampered generation rejected" false (V.ok report);
  Alcotest.(check bool) "flagged as Correction_mismatch" true
    (List.exists (function V.Correction_mismatch _ -> true | _ -> false) report.V.violations)

let test_retraction_without_reemit_flagged () =
  let r = run ~late:D.Retract_reemit (P.vitals ()) (disordered_frames ()) in
  let records = records_of r in
  let honest = V.verify r.Runtime.verifier_spec records in
  let w0 =
    match honest.V.corrected_windows with
    | w :: _ -> w
    | [] -> Alcotest.fail "expected a corrected window"
  in
  (* Suppress the window's correction egress but keep its replayed
     re-evaluation: the TEE retracted a result downstream still holds. *)
  let pruned =
    List.filter
      (function Record.Correction { win_no; _ } -> win_no <> w0 | _ -> true)
      records
  in
  let report = V.verify r.Runtime.verifier_spec pruned in
  Alcotest.(check bool) "suppressed reemit rejected" false (V.ok report);
  Alcotest.(check bool) "flagged as Retraction_without_reemit" true
    (List.exists
       (function V.Retraction_without_reemit { window; _ } -> window = w0 | _ -> false)
       report.V.violations)

(* --- the headline property ---------------------------------------------------- *)

let prop_retract_converges_to_in_order =
  QCheck.Test.make
    ~name:"retract-and-reemit converges to the in-order bytes"
    ~count:4
    QCheck.(int_range 0 1_000)
    (fun seed ->
      let in_order = run ~late:D.Silent (P.vitals ()) (vitals_frames ()) in
      let disordered =
        run ~late:D.Retract_reemit (P.vitals ())
          (vitals_frames
             ~disorder:(Fault.disorder_plan ~seed:(Int64.of_int (seed + 1)) ~rate:0.25 ())
             ~watermark:(Datagen.Heuristic 0) ())
      in
      let report = V.verify disordered.Runtime.verifier_spec (records_of disordered) in
      if not (V.ok report) then QCheck.Test.fail_report "disordered run failed verification";
      if merged disordered <> sorted_results in_order then
        QCheck.Test.fail_report "corrected results diverge from the in-order run";
      merged in_order = sorted_results in_order)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "disorder"
    [
      ( "datagen",
        [
          Alcotest.test_case "disorder plans are deterministic" `Quick
            test_disorder_deterministic;
          Alcotest.test_case "watermarks monotone, final closes stream" `Quick
            test_watermarks_monotone_and_final;
          Alcotest.test_case "punctuation never admits late data" `Quick
            test_punctuation_never_late;
          Alcotest.test_case "heuristic bound controls lateness" `Quick
            test_heuristic_bound_controls_lateness;
        ] );
      ( "boundaries",
        [
          Alcotest.test_case "record exactly at the watermark is on time" `Quick
            test_boundary_record_not_late;
          Alcotest.test_case "silent discard of late data is caught" `Quick
            test_silent_policy_is_caught;
        ] );
      ( "sessions",
        [
          Alcotest.test_case "gap edges: = extends, +1 splits" `Quick
            test_session_gap_edges;
          Alcotest.test_case "sessions demand in-order event times" `Quick
            test_session_requires_in_order;
        ] );
      ( "verifier",
        [
          Alcotest.test_case "undeclared late drop flagged" `Quick
            test_undeclared_late_drop_flagged;
          Alcotest.test_case "tampered correction generation flagged" `Quick
            test_tampered_correction_flagged;
          Alcotest.test_case "retraction without reemit flagged" `Quick
            test_retraction_without_reemit_flagged;
        ] );
      ("convergence", [ qt prop_retract_converges_to_in_order ]);
    ]
