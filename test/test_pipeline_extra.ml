(* End-to-end coverage of the additional operator pipelines (Table 2
   coverage beyond the six benchmarks), plus property tests on the whole
   run→verify loop with randomized workload shapes. *)

module D = Sbt_core.Dataplane
module Pipeline = Sbt_core.Pipeline
module Runtime = Sbt_core.Runtime
module Datagen = Sbt_workloads.Datagen
module Frame = Sbt_net.Frame
module V = Sbt_attest.Verifier

let egress_key = Bytes.of_string "sbt-egress-key16"

let run_pipeline pipe frames =
  let cfg = Runtime.Config.make () in
  Runtime.run cfg pipe frames

let result_rows (r : Runtime.run_result) w =
  match List.assoc_opt w r.Runtime.results with
  | Some sealed ->
      D.open_result ~egress_key sealed
      |> Array.to_list
      |> List.map (fun row -> Array.to_list (Array.map Int32.to_int row))
  | None -> Alcotest.failf "no result for window %d" w

let small_spec ?(seed = 3L) () =
  { (Datagen.default_spec ~windows:2 ~events_per_window:3_000 ~batch_events:800 ()) with
    Datagen.seed;
    gen_record =
      (fun rng ~ts ->
        [| Int32.of_int (Sbt_crypto.Rng.int_below rng 20);
           Int32.of_int (Sbt_crypto.Rng.int_below rng 1_000);
           ts |]);
  }

let events_of_frames frames =
  List.concat_map
    (fun f ->
      match f with
      | Frame.Watermark _ -> []
      | Frame.Events { payload; _ } -> Array.to_list (Frame.unpack_events ~width:3 payload))
    frames

let by_window events =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun e ->
      let w = Int32.to_int e.(2) / 1000 in
      Hashtbl.replace tbl w (e :: Option.value ~default:[] (Hashtbl.find_opt tbl w)))
    events;
  tbl

let group_values events =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (e : int32 array) ->
      let k = Int32.to_int e.(0) and v = Int32.to_int e.(1) in
      Hashtbl.replace tbl k (v :: Option.value ~default:[] (Hashtbl.find_opt tbl k)))
    events;
  List.sort compare (Hashtbl.fold (fun k vs acc -> (k, vs) :: acc) tbl [])

let check_keyed_pipeline name pipe expected_of_group () =
  let spec = small_spec () in
  let frames = Datagen.frames spec in
  let r = run_pipeline pipe frames in
  let windows = by_window (events_of_frames frames) in
  Hashtbl.iter
    (fun w evs ->
      let expected =
        List.map (fun (k, vs) -> [ k; expected_of_group vs ]) (group_values evs)
      in
      Alcotest.(check (list (list int))) (Printf.sprintf "%s window %d" name w) expected
        (result_rows r w))
    windows;
  let records =
    List.concat_map (fun b -> Sbt_attest.Log.open_batch ~key:egress_key b) r.Runtime.audit
  in
  Alcotest.(check bool) (name ^ " verifies") true
    (V.ok (V.verify r.Runtime.verifier_spec records))

let test_sum_per_key =
  check_keyed_pipeline "sum_per_key" (Pipeline.sum_per_key ()) (fun vs -> List.fold_left ( + ) 0 vs)

let test_avg_per_key =
  check_keyed_pipeline "avg_per_key" (Pipeline.avg_per_key ()) (fun vs ->
      List.fold_left ( + ) 0 vs / List.length vs)

let test_median_per_key =
  check_keyed_pipeline "median_per_key" (Pipeline.median_per_key ()) (fun vs ->
      let a = Array.of_list vs in
      Array.sort compare a;
      a.((Array.length a - 1) / 2))

let test_count_by_window () =
  let spec = small_spec () in
  let frames = Datagen.frames spec in
  let r = run_pipeline (Pipeline.count_by_window ()) frames in
  let windows = by_window (events_of_frames frames) in
  Hashtbl.iter
    (fun w evs ->
      Alcotest.(check (list (list int)))
        (Printf.sprintf "count window %d" w)
        [ [ List.length evs ] ]
        (result_rows r w))
    windows

let test_min_max () =
  let spec = small_spec () in
  let frames = Datagen.frames spec in
  let r = run_pipeline (Pipeline.min_max ()) frames in
  let windows = by_window (events_of_frames frames) in
  Hashtbl.iter
    (fun w evs ->
      let values = List.map (fun (e : int32 array) -> Int32.to_int e.(1)) evs in
      let lo = List.fold_left min max_int values and hi = List.fold_left max min_int values in
      Alcotest.(check (list (list int))) (Printf.sprintf "minmax window %d" w) [ [ lo; hi ] ]
        (result_rows r w))
    windows

(* --- sliding windows (stream-model extension) ------------------------------ *)

let test_sliding_win_sum () =
  (* size 1000, slide 500: every event contributes to two windows; window w
     covers [w*500, w*500 + 1000). *)
  let spec =
    { (Datagen.default_spec ~windows:4 ~events_per_window:2_000 ~batch_events:500 ()) with
      Datagen.window_ticks = 500;
      window_span_ticks = Some 1000;
      seed = 5L;
    }
  in
  let frames = Datagen.frames spec in
  let pipe = Pipeline.win_sum ~window_size_ticks:1000 ~window_slide_ticks:500 () in
  let r = run_pipeline pipe frames in
  let events = events_of_frames frames in
  (* 4 slide periods, so complete windows are 0..2. *)
  Alcotest.(check int) "three complete windows" 3 (List.length r.Runtime.results);
  List.iter
    (fun w ->
      let expected =
        List.fold_left
          (fun acc (e : int32 array) ->
            let ts = Int32.to_int e.(2) in
            if ts >= w * 500 && ts < (w * 500) + 1000 then Int64.add acc (Int64.of_int32 e.(1))
            else acc)
          0L events
      in
      match List.assoc_opt w r.Runtime.results with
      | None -> Alcotest.failf "missing window %d" w
      | Some sealed ->
          let rows = D.open_result ~egress_key sealed in
          let got =
            Int64.logor
              (Int64.logand (Int64.of_int32 rows.(0).(0)) 0xFFFFFFFFL)
              (Int64.shift_left (Int64.of_int32 rows.(0).(1)) 32)
          in
          Alcotest.(check int64) (Printf.sprintf "sliding window %d sum" w) expected got)
    [ 0; 1; 2 ];
  (* The audit stream of a sliding pipeline still verifies. *)
  let records =
    List.concat_map (fun b -> Sbt_attest.Log.open_batch ~key:egress_key b) r.Runtime.audit
  in
  Alcotest.(check bool) "verifies" true (V.ok (V.verify r.Runtime.verifier_spec records))

let test_windows_of_ranges () =
  let check ts expected =
    Alcotest.(check (pair int int)) (Printf.sprintf "ts=%d" ts) expected
      (Sbt_prim.Segment.windows_of ~ts ~size:1000 ~slide:500)
  in
  check 0 (0, 0);
  check 499 (0, 0);
  check 500 (0, 1);
  check 999 (0, 1);
  check 1000 (1, 2);
  check 1499 (1, 2)

(* --- stateful pipeline: Figure 2's in-TEE EWMA load prediction ------------- *)

let test_load_predict_matches_reference () =
  let bench =
    Sbt_workloads.Benchmarks.power ~windows:4 ~events_per_window:4_000 ~batch_events:1_000 ()
  in
  let frames = Sbt_workloads.Benchmarks.frames bench in
  let pipe = Pipeline.load_predict ~alpha_percent:50 () in
  let r = run_pipeline pipe frames in
  Alcotest.(check int) "four windows" 4 (List.length r.Runtime.results);
  (* Reference: per window, avg per plug -> per house avg of plug-averages
     (truncating integer division, matching the primitives), then EWMA
     with alpha = 50%. *)
  let events =
    List.concat_map
      (fun f ->
        match f with
        | Frame.Watermark _ -> []
        | Frame.Events { payload; _ } -> Array.to_list (Frame.unpack_events ~width:4 payload))
      frames
  in
  let house_avg w =
    let per_plug = Hashtbl.create 64 in
    List.iter
      (fun (e : int32 array) ->
        if Int32.to_int e.(2) / 1000 = w then
          Hashtbl.replace per_plug e.(0)
            (Int32.to_int e.(1) :: Option.value ~default:[] (Hashtbl.find_opt per_plug e.(0))))
      events;
    let per_house = Hashtbl.create 64 in
    Hashtbl.iter
      (fun plug vs ->
        let avg = List.fold_left ( + ) 0 vs / List.length vs in
        let house = Int32.to_int plug lsr 8 in
        Hashtbl.replace per_house house
          (avg :: Option.value ~default:[] (Hashtbl.find_opt per_house house)))
      per_plug;
    (* plug-average list per house was built head-first; the engine's
       Avg_per_key scans runs in key order, so order within the house does
       not matter for an average *)
    Hashtbl.fold
      (fun h vs acc -> (h, List.fold_left ( + ) 0 vs / List.length vs) :: acc)
      per_house []
    |> List.sort compare
  in
  let expected = Hashtbl.create 64 in
  for w = 0 to 3 do
    let avgs = house_avg w in
    let predictions =
      List.map
        (fun (h, avg) ->
          match Hashtbl.find_opt expected h with
          | None -> (h, avg) (* first window: prediction = current average *)
          | Some prev -> (h, (prev + avg) / 2))
        avgs
    in
    List.iter (fun (h, p) -> Hashtbl.replace expected h p) predictions;
    let got =
      result_rows r w |> List.map (function [ h; p ] -> (h, p) | _ -> Alcotest.fail "bad row")
    in
    Alcotest.(check bool)
      (Printf.sprintf "window %d predictions" w)
      true
      (List.sort compare predictions = List.sort compare got)
  done;
  (* The stateful run still verifies: state flows forward across windows. *)
  let records =
    List.concat_map (fun b -> Sbt_attest.Log.open_batch ~key:egress_key b) r.Runtime.audit
  in
  let report = V.verify r.Runtime.verifier_spec records in
  if not (V.ok report) then
    Alcotest.failf "stateful run rejected: %s" (Format.asprintf "%a" V.pp_report report)

(* --- late data: the watermark contract is enforced end to end -------------- *)

let test_late_data_detected () =
  (* A malicious/broken source emits an event for window 0 after the
     watermark that closed it.  The engine windows it, but the closed
     window's plan has already run - the verifier must flag the orphaned
     data. *)
  let mk_events seq rows =
    Frame.Events
      {
        seq;
        stream = 0;
        events = List.length rows;
        windows =
          List.sort_uniq compare
            (List.map (fun r -> Int32.to_int (List.nth r 2) / 1000) rows);
        payload = Frame.pack_events ~width:3 (Array.of_list (List.map Array.of_list rows));
        encrypted = false;
        mac = Bytes.empty;
      }
  in
  let frames =
    [
      mk_events 0 [ [ 1l; 10l; 100l ]; [ 2l; 20l; 900l ] ];
      Frame.Watermark { seq = 0; value = 1000 };
      (* late: ts 500 belongs to the already-closed window 0 *)
      mk_events 1 [ [ 3l; 30l; 500l ]; [ 4l; 40l; 1500l ] ];
      Frame.Watermark { seq = 1; value = 2000 };
    ]
  in
  let r = run_pipeline (Pipeline.win_sum ()) frames in
  let records =
    List.concat_map (fun b -> Sbt_attest.Log.open_batch ~key:egress_key b) r.Runtime.audit
  in
  let report = V.verify r.Runtime.verifier_spec records in
  Alcotest.(check bool) "late data flagged" false (V.ok report);
  Alcotest.(check bool) "as unprocessed window data" true
    (List.exists
       (function V.Unprocessed_window_data { window = 0; _ } -> true | _ -> false)
       report.V.violations)

(* Property: for random workload shapes (window count, batch size, key
   range), the engine produces one result per window and a clean audit
   replay, and retires every reference. *)
let prop_random_workloads_verify =
  QCheck.Test.make ~name:"random workloads run and verify" ~count:12
    QCheck.(triple (int_range 1 4) (int_range 50 900) (int_range 1 40))
    (fun (windows, batch_events, keys) ->
      let spec =
        { (Datagen.default_spec ~windows ~events_per_window:2_000 ~batch_events ()) with
          Datagen.seed = Int64.of_int (windows + batch_events + keys);
          gen_record =
            (fun rng ~ts ->
              [| Int32.of_int (Sbt_crypto.Rng.int_below rng keys);
                 Int32.of_int (Sbt_crypto.Rng.int_below rng 10_000);
                 ts |]);
        }
      in
      let frames = Datagen.frames spec in
      let r = run_pipeline (Pipeline.sum_per_key ()) frames in
      let records =
        List.concat_map (fun b -> Sbt_attest.Log.open_batch ~key:egress_key b) r.Runtime.audit
      in
      List.length r.Runtime.results = windows
      && V.ok (V.verify r.Runtime.verifier_spec records)
      && r.Runtime.live_refs_after = 0)

(* Property: hints on vs off never change results, only memory. *)
let prop_hints_do_not_change_results =
  QCheck.Test.make ~name:"hints never change results" ~count:8
    QCheck.(int_range 0 1000)
    (fun salt ->
      let spec = small_spec ~seed:(Int64.of_int (1000 + salt)) () in
      let frames = Datagen.frames spec in
      let run hints_enabled alloc_mode =
        let cfg = Runtime.Config.make ~cores:8 ~alloc_mode ~hints_enabled () in
        let r = Runtime.run cfg (Pipeline.distinct ()) frames in
        List.map (fun (w, s) -> (w, D.open_result ~egress_key s)) r.Runtime.results
        |> List.sort compare
      in
      run true Sbt_umem.Allocator.Hint_guided = run false Sbt_umem.Allocator.Producer_grouping)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "pipeline-extra"
    [
      ( "operators",
        [
          Alcotest.test_case "sum_per_key" `Quick test_sum_per_key;
          Alcotest.test_case "avg_per_key" `Quick test_avg_per_key;
          Alcotest.test_case "median_per_key" `Quick test_median_per_key;
          Alcotest.test_case "count_by_window" `Quick test_count_by_window;
          Alcotest.test_case "min_max" `Quick test_min_max;
        ] );
      ( "stateful",
        [
          Alcotest.test_case "load_predict EWMA reference" `Quick
            test_load_predict_matches_reference;
          Alcotest.test_case "late data detected" `Quick test_late_data_detected;
        ] );
      ( "sliding-windows",
        [
          Alcotest.test_case "windows_of ranges" `Quick test_windows_of_ranges;
          Alcotest.test_case "sliding winsum" `Quick test_sliding_win_sum;
        ] );
      ( "properties",
        [ q prop_random_workloads_verify; q prop_hints_do_not_change_results ] );
    ]
