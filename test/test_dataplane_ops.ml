(* Per-primitive coverage of the data-plane invoke surface: every one of
   the 23 trusted primitives is exercised through R_invoke with opaque
   references, and its output is checked against the corresponding
   Sbt_prim reference call.  This pins the dispatch layer (parameter
   decoding, output sizing, audit emission) for the whole registry. *)

module D = Sbt_core.Dataplane
module P = Sbt_prim.Primitive

let mk_dp () = D.create (D.Config.make ~version:D.Clear_ingress ~secure_mb:64 ())

let payload_of ~width rows =
  Sbt_net.Frame.pack_events ~width (Array.of_list (List.map Array.of_list rows))

(* Width of ingested events is the data plane's configured width; for
   non-3 widths we reconfigure. *)
let ingest dp ~width rows =
  D.set_ingest_width dp width;
  match
    D.call dp
      (D.R_ingest_events
         { payload = payload_of ~width rows; encrypted = false; stream = 0; seq = 0;
           mac = Bytes.empty; windowing = None })
  with
  | D.Rs_ingested { outs = [ out ]; _ } -> out.D.ref_
  | _ -> Alcotest.fail "unexpected ingest response"

let invoke dp ?(params = []) ?(retire = true) op inputs =
  match
    D.call dp
      (D.R_invoke
         { chain = [ (op, params) ]; inputs; trigger = None; hints = []; retire_inputs = retire })
  with
  | D.Rs_outputs outs -> outs
  | _ -> Alcotest.fail "unexpected invoke response"

let rows_of dp (out : D.output) =
  match D.call dp (D.R_egress { input = out.D.ref_; window = 0 }) with
  | D.Rs_egress sealed ->
      let rows = D.open_result ~egress_key:(Bytes.of_string "sbt-egress-key16") sealed in
      Array.to_list rows |> List.map (fun r -> Array.to_list (Array.map Int32.to_int r))
  | _ -> Alcotest.fail "unexpected egress response"

let one = function [ o ] -> o | _ -> Alcotest.fail "expected one output"

let il = List.map (List.map Int32.of_int)

let check_rows = Alcotest.(check (list (list int)))

let test_sort () =
  let dp = mk_dp () in
  let r = ingest dp ~width:3 (il [ [ 3; 1; 0 ]; [ 1; 2; 0 ]; [ 2; 3; 0 ] ]) in
  let out = one (invoke dp ~params:[ D.P_key_field 0 ] P.Sort [ r ]) in
  check_rows "sorted" [ [ 1; 2; 0 ]; [ 2; 3; 0 ]; [ 3; 1; 0 ] ] (rows_of dp out)

let test_sort_secondary () =
  let dp = mk_dp () in
  let r = ingest dp ~width:3 (il [ [ 1; 9; 0 ]; [ 1; 2; 0 ]; [ 0; 5; 0 ] ]) in
  let out = one (invoke dp ~params:[ D.P_key_field 0; D.P_value_field 1 ] P.Sort [ r ]) in
  check_rows "key then value" [ [ 0; 5; 0 ]; [ 1; 2; 0 ]; [ 1; 9; 0 ] ] (rows_of dp out)

let test_merge_and_kway () =
  let dp = mk_dp () in
  let a = ingest dp ~width:1 (il [ [ 1 ]; [ 5 ] ]) in
  let b = ingest dp ~width:1 (il [ [ 2 ]; [ 6 ] ]) in
  let m = one (invoke dp ~params:[ D.P_key_field 0 ] P.Merge [ a; b ]) in
  let c = ingest dp ~width:1 (il [ [ 0 ]; [ 9 ] ]) in
  let k = one (invoke dp ~params:[ D.P_key_field 0 ] P.Kway_merge [ m.D.ref_; c ]) in
  check_rows "kway" [ [ 0 ]; [ 1 ]; [ 2 ]; [ 5 ]; [ 6 ]; [ 9 ] ] (rows_of dp k)

let test_segment () =
  let dp = mk_dp () in
  let r = ingest dp ~width:3 (il [ [ 1; 0; 50 ]; [ 2; 0; 150 ]; [ 3; 0; 151 ] ]) in
  let outs = invoke dp ~params:[ D.P_window_size 100; D.P_ts_field 2 ] P.Segment [ r ] in
  Alcotest.(check (list int)) "windows" [ 0; 1 ] (List.map (fun (o : D.output) -> o.D.win) outs);
  Alcotest.(check (list int)) "sizes" [ 1; 2 ] (List.map (fun (o : D.output) -> o.D.events) outs)

let test_sum_cnt_sum_count_avg () =
  let dp = mk_dp () in
  let mk () = ingest dp ~width:3 (il [ [ 0; 10; 0 ]; [ 0; 20; 0 ]; [ 0; 31; 0 ] ]) in
  let sc = one (invoke dp ~params:[ D.P_value_field 1 ] P.Sum_cnt [ mk () ]) in
  check_rows "sumcnt" [ [ 61; 3 ] ] (rows_of dp sc);
  let s = one (invoke dp ~params:[ D.P_value_field 1 ] P.Sum [ mk () ]) in
  check_rows "sum (lo,hi)" [ [ 61; 0 ] ] (rows_of dp s);
  let c = one (invoke dp P.Count [ mk () ]) in
  check_rows "count" [ [ 3 ] ] (rows_of dp c);
  let a = one (invoke dp ~params:[ D.P_value_field 1 ] P.Average [ mk () ]) in
  check_rows "average" [ [ 20 ] ] (rows_of dp a)

let test_median_minmax () =
  let dp = mk_dp () in
  let mk () = ingest dp ~width:3 (il [ [ 0; 7; 0 ]; [ 0; 1; 0 ]; [ 0; 9; 0 ] ]) in
  let m = one (invoke dp ~params:[ D.P_value_field 1 ] P.Median [ mk () ]) in
  check_rows "median" [ [ 7 ] ] (rows_of dp m);
  let mm = one (invoke dp ~params:[ D.P_value_field 1 ] P.Min_max [ mk () ]) in
  check_rows "minmax" [ [ 1; 9 ] ] (rows_of dp mm)

let test_topk_and_topk_per_key () =
  let dp = mk_dp () in
  let r = ingest dp ~width:3 (il [ [ 1; 5; 0 ]; [ 2; 9; 0 ]; [ 3; 7; 0 ] ]) in
  let t = one (invoke dp ~params:[ D.P_value_field 1; D.P_k 2 ] P.Top_k [ r ]) in
  check_rows "topk records" [ [ 2; 9; 0 ]; [ 3; 7; 0 ] ] (rows_of dp t);
  let sorted = ingest dp ~width:3 (il [ [ 1; 5; 0 ]; [ 1; 9; 0 ]; [ 2; 7; 0 ] ]) in
  let tk =
    one (invoke dp ~params:[ D.P_key_field 0; D.P_value_field 1; D.P_k 1 ] P.Top_k_per_key [ sorted ])
  in
  check_rows "topk per key" [ [ 1; 9 ]; [ 2; 7 ] ] (rows_of dp tk)

let test_concat () =
  let dp = mk_dp () in
  let a = ingest dp ~width:1 (il [ [ 1 ] ]) in
  let b = ingest dp ~width:1 (il [ [ 2 ]; [ 3 ] ]) in
  let c = one (invoke dp P.Concat [ a; b ]) in
  check_rows "concat" [ [ 1 ]; [ 2 ]; [ 3 ] ] (rows_of dp c)

let test_join () =
  let dp = mk_dp () in
  let l = ingest dp ~width:3 (il [ [ 1; 10; 0 ]; [ 2; 20; 0 ] ]) in
  let r = ingest dp ~width:3 (il [ [ 1; 11; 0 ]; [ 1; 12; 0 ]; [ 3; 30; 0 ] ]) in
  let j = one (invoke dp ~params:[ D.P_key_field 0; D.P_value_field 1 ] P.Join [ l; r ]) in
  check_rows "join" [ [ 1; 10; 11 ]; [ 1; 10; 12 ] ] (rows_of dp j)

let test_unique_and_keyed_aggs () =
  let dp = mk_dp () in
  let mk () = ingest dp ~width:3 (il [ [ 1; 4; 0 ]; [ 1; 6; 0 ]; [ 2; 10; 0 ] ]) in
  let u = one (invoke dp ~params:[ D.P_key_field 0 ] P.Unique [ mk () ]) in
  check_rows "unique" [ [ 1; 1 ]; [ 2; 1 ] ] (rows_of dp u);
  let sk = one (invoke dp ~params:[ D.P_key_field 0; D.P_value_field 1 ] P.Sum_per_key [ mk () ]) in
  check_rows "sum_per_key" [ [ 1; 10 ]; [ 2; 10 ] ] (rows_of dp sk);
  let ck = one (invoke dp ~params:[ D.P_key_field 0 ] P.Count_per_key [ mk () ]) in
  check_rows "count_per_key" [ [ 1; 2 ]; [ 2; 1 ] ] (rows_of dp ck);
  let ak = one (invoke dp ~params:[ D.P_key_field 0; D.P_value_field 1 ] P.Avg_per_key [ mk () ]) in
  check_rows "avg_per_key" [ [ 1; 5 ]; [ 2; 10 ] ] (rows_of dp ak);
  let mk2 = one (invoke dp ~params:[ D.P_key_field 0; D.P_value_field 1 ] P.Median_per_key [ mk () ]) in
  check_rows "median_per_key" [ [ 1; 4 ]; [ 2; 10 ] ] (rows_of dp mk2)

let test_filter_select () =
  let dp = mk_dp () in
  let mk () = ingest dp ~width:3 (il [ [ 1; 5; 0 ]; [ 2; 50; 0 ]; [ 3; 7; 0 ] ]) in
  let f =
    one (invoke dp ~params:[ D.P_value_field 1; D.P_lo 0l; D.P_hi 10l ] P.Filter_band [ mk () ])
  in
  check_rows "band" [ [ 1; 5; 0 ]; [ 3; 7; 0 ] ] (rows_of dp f);
  let s = one (invoke dp ~params:[ D.P_value_field 0; D.P_lo 2l ] P.Select [ mk () ]) in
  check_rows "select" [ [ 2; 50; 0 ] ] (rows_of dp s)

let test_filter_runtime_threshold () =
  (* Two-input FilterBand: the threshold comes from another uArray (the
     Power pipeline's global average). *)
  let dp = mk_dp () in
  let data = ingest dp ~width:3 (il [ [ 1; 5; 0 ]; [ 2; 50; 0 ]; [ 3; 7; 0 ] ]) in
  let th = one (invoke dp ~params:[ D.P_value_field 1 ] P.Average [ ingest dp ~width:3 (il [ [ 0; 20; 0 ] ]) ]) in
  let f = one (invoke dp ~params:[ D.P_value_field 1 ] P.Filter_band [ data; th.D.ref_ ]) in
  check_rows "above threshold" [ [ 2; 50; 0 ] ] (rows_of dp f)

let test_project_shift () =
  let dp = mk_dp () in
  let r = ingest dp ~width:3 (il [ [ 258; 7; 0 ]; [ 515; 8; 1 ] ]) in
  let p = one (invoke dp ~params:[ D.P_fields [| 0; 1 |] ] P.Project [ r ]) in
  let s = one (invoke dp ~params:[ D.P_key_field 0; D.P_shift 8 ] P.Shift_key [ p.D.ref_ ]) in
  check_rows "project+shift" [ [ 1; 7 ]; [ 2; 8 ] ] (rows_of dp s)

let test_audit_covers_all_ops () =
  (* Every non-Segment invoke must leave exactly one Execution record with
     the right op id. *)
  let dp = mk_dp () in
  let r = ingest dp ~width:3 (il [ [ 1; 2; 3 ] ]) in
  let _ = invoke dp P.Count [ r ] in
  let records = D.audit_records_for_test dp in
  let execs =
    List.filter_map
      (function Sbt_attest.Record.Execution { op; _ } -> Some op | _ -> None)
      records
  in
  Alcotest.(check (list int)) "one exec with Count id" [ P.to_id P.Count ] execs

(* Field parameters come from the normal world.  Each is checked in-TEE
   against the width of the input it indexes: an out-of-width field is
   Rejected before any output is allocated or any record written, and
   the data plane serves the next valid call.  Each case is (op, input
   count, params with the field under test set to [f]). *)
let field_cases =
  [
    (P.Kway_merge, 2, fun f -> [ D.P_key_field f ]);
    (P.Merge, 2, fun f -> [ D.P_key_field f ]);
    (P.Join, 2, fun f -> [ D.P_key_field 0; D.P_value_field f ]);
    (P.Segment, 1, fun f -> [ D.P_window_size 100; D.P_ts_field f ]);
    (P.Avg_per_key, 1, fun f -> [ D.P_key_field 0; D.P_value_field f ]);
    (P.Unique, 1, fun f -> [ D.P_key_field f ]);
    (P.Filter_band, 1, fun f -> [ D.P_value_field f; D.P_lo 0l; D.P_hi 10l ]);
    (P.Sort, 1, fun f -> [ D.P_key_field f ]);
    (P.Sum_cnt, 1, fun f -> [ D.P_value_field f ]);
    (P.Top_k, 1, fun f -> [ D.P_value_field f; D.P_k 2 ]);
    (P.Shift_key, 1, fun f -> [ D.P_key_field f; D.P_shift 1 ]);
    (P.Project, 1, fun f -> [ D.P_fields [| 0; f |] ]);
  ]

let test_field_out_of_width () =
  List.iter
    (fun (op, arity, params) ->
      List.iter
        (fun bad ->
          let dp = mk_dp () in
          let rows = il [ [ 1; 5; 100 ]; [ 2; 6; 150 ] ] in
          let inputs = List.init arity (fun _ -> ingest dp ~width:3 rows) in
          let committed = D.pool_committed_bytes dp in
          let name = Printf.sprintf "%s field %d" (P.name op) bad in
          (match invoke dp ~params:(params bad) op inputs with
          | _ -> Alcotest.failf "%s: accepted" name
          | exception D.Rejected _ -> ());
          Alcotest.(check int) (name ^ ": pool unchanged") committed (D.pool_committed_bytes dp);
          Alcotest.(check bool) (name ^ ": next call served") true
            (invoke dp ~params:(params 1) op inputs <> []))
        [ -1; 3; 1_000_000 ])
    field_cases

(* Merge, KwayMerge and Concat copy whole records into one output, so
   inputs of different widths are Rejected in-TEE, before any output is
   allocated, and the next valid call is served. *)
let test_mixed_widths_rejected () =
  List.iter
    (fun op ->
      let dp = mk_dp () in
      let a = ingest dp ~width:3 (il [ [ 1; 5; 100 ]; [ 2; 6; 150 ] ]) in
      let c = ingest dp ~width:3 (il [ [ 2; 7; 120 ] ]) in
      let b = ingest dp ~width:2 (il [ [ 1; 5 ]; [ 3; 7 ] ]) in
      let committed = D.pool_committed_bytes dp in
      let name = P.name op in
      List.iter
        (fun inputs ->
          match invoke dp op inputs with
          | _ -> Alcotest.failf "%s: accepted" name
          | exception D.Rejected _ -> ())
        [ [ a; b ]; [ b; a ] ];
      Alcotest.(check int) (name ^ ": pool unchanged") committed (D.pool_committed_bytes dp);
      Alcotest.(check int) (name ^ ": next call served") 3
        (List.length (rows_of dp (one (invoke dp op [ a; c ])))))
    [ P.Merge; P.Kway_merge; P.Concat ]

let () =
  Alcotest.run "dataplane-ops"
    [
      ( "invoke-surface",
        [
          Alcotest.test_case "sort" `Quick test_sort;
          Alcotest.test_case "sort secondary order" `Quick test_sort_secondary;
          Alcotest.test_case "merge + kway" `Quick test_merge_and_kway;
          Alcotest.test_case "segment" `Quick test_segment;
          Alcotest.test_case "sumcnt/sum/count/average" `Quick test_sum_cnt_sum_count_avg;
          Alcotest.test_case "median/minmax" `Quick test_median_minmax;
          Alcotest.test_case "topk both kinds" `Quick test_topk_and_topk_per_key;
          Alcotest.test_case "concat" `Quick test_concat;
          Alcotest.test_case "join" `Quick test_join;
          Alcotest.test_case "unique + keyed aggs" `Quick test_unique_and_keyed_aggs;
          Alcotest.test_case "filter/select" `Quick test_filter_select;
          Alcotest.test_case "runtime threshold" `Quick test_filter_runtime_threshold;
          Alcotest.test_case "project + shift" `Quick test_project_shift;
          Alcotest.test_case "audit covers ops" `Quick test_audit_covers_all_ops;
          Alcotest.test_case "field outside the input rejected" `Quick test_field_out_of_width;
          Alcotest.test_case "inputs of different widths rejected" `Quick
            test_mixed_widths_rejected;
        ] );
    ]
