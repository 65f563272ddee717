(* Tests for certified UDFs (paper §4.2) and TEE identity quotes (§3.1):
   the two trust-establishment mechanisms around the data plane. *)

module D = Sbt_core.Dataplane
module Udf = Sbt_core.Udf
module Quote = Sbt_attest.Quote
module Pipeline = Sbt_core.Pipeline
module Runtime = Sbt_core.Runtime

let egress_key = Bytes.of_string "sbt-egress-key16"

(* --- UDF certification ---------------------------------------------------- *)

let double = { Udf.name = "double"; version = 1; body = Udf.Map_value (fun v -> Int32.mul v 2l) }
let evens = { Udf.name = "evens"; version = 1; body = Udf.Predicate (fun v -> Int32.rem v 2l = 0l) }

let test_certify_verify () =
  let cert = Udf.certify ~key:egress_key double in
  Alcotest.(check bool) "verifies" true (Udf.verify ~key:egress_key double cert);
  Alcotest.(check bool) "wrong key fails" false (Udf.verify ~key:(Bytes.make 16 'x') double cert);
  (* A different body behind the same name/version is caught by the
     behaviour fingerprint. *)
  let impostor = { double with Udf.body = Udf.Map_value (fun v -> Int32.add v 1l) } in
  Alcotest.(check bool) "body swap fails" false (Udf.verify ~key:egress_key impostor cert)

let test_fingerprint_distinguishes () =
  let fp b = Bytes.to_string (Udf.fingerprint b) in
  Alcotest.(check bool) "map vs predicate differ" false
    (fp double.Udf.body = fp evens.Udf.body);
  Alcotest.(check bool) "same body stable" true (fp double.Udf.body = fp double.Udf.body)

let mk_dp () = D.create (D.Config.make ~version:D.Clear_ingress ~secure_mb:64 ())

let ingest dp rows =
  let payload =
    Sbt_net.Frame.pack_events ~width:3 (Array.of_list (List.map Array.of_list rows))
  in
  match
    D.call dp
      (D.R_ingest_events { payload; encrypted = false; stream = 0; seq = 0; mac = Bytes.empty;
                           windowing = None })
  with
  | D.Ingested { outs = [ out ]; _ } -> out.D.ref_
  | D.Ingested _ -> Alcotest.fail "ingest without windowing must return one batch"
  | D.Refused _ -> Alcotest.fail "ingest refused"

let install dp udf =
  let cert = Udf.certificate_bytes (Udf.certify ~key:egress_key udf) in
  D.call dp (D.R_install_udf { udf; cert })

let run_udf dp ~name ~version input =
  let out =
    D.call dp
      (D.R_invoke_udf
         {
           name;
           version;
           inputs = [ input ];
           trigger = None;
           value_field = 1;
           hints = [];
           retire_inputs = true;
           state_output = false;
         })
  in
  D.call dp (D.R_egress { input = out.D.ref_; window = 0 })
  |> D.open_result ~egress_key
  |> Array.to_list
  |> List.map (fun r -> Array.to_list (Array.map Int32.to_int r))

let rows = [ [ 1l; 10l; 0l ]; [ 2l; 11l; 0l ]; [ 3l; 12l; 0l ] ]

let test_udf_map_end_to_end () =
  let dp = mk_dp () in
  install dp double;
  let r = ingest dp rows in
  Alcotest.(check (list (list int))) "values doubled"
    [ [ 1; 20; 0 ]; [ 2; 22; 0 ]; [ 3; 24; 0 ] ]
    (run_udf dp ~name:"double" ~version:1 r)

let test_udf_predicate_end_to_end () =
  let dp = mk_dp () in
  install dp evens;
  let r = ingest dp rows in
  Alcotest.(check (list (list int))) "evens kept" [ [ 1; 10; 0 ]; [ 3; 12; 0 ] ]
    (run_udf dp ~name:"evens" ~version:1 r)

let test_uncertified_udf_rejected () =
  let dp = mk_dp () in
  let bad_cert = Bytes.make 32 '\000' in
  (try
     ignore (D.call dp (D.R_install_udf { udf = double; cert = bad_cert }));
     Alcotest.fail "uncertified UDF installed"
   with D.Rejected _ -> ());
  (* And an uninstalled UDF cannot be invoked at all. *)
  let r = ingest dp rows in
  try
    ignore
      (D.call dp
         (D.R_invoke_udf
            {
              name = "double";
              version = 1;
              inputs = [ r ];
              trigger = None;
              value_field = 1;
              hints = [];
              retire_inputs = true;
              state_output = false;
            }));
    Alcotest.fail "uninstalled UDF ran"
  with D.Rejected _ -> ()

let test_udf_audited () =
  let dp = mk_dp () in
  install dp double;
  let r = ingest dp rows in
  ignore (run_udf dp ~name:"double" ~version:1 r);
  let execs =
    List.filter_map
      (function Sbt_attest.Record.Execution { op; _ } -> Some op | _ -> None)
      (D.audit_records_for_test dp)
  in
  Alcotest.(check (list int)) "udf execution audited" [ Sbt_prim.Primitive.udf_id ] execs

(* --- union pipeline -------------------------------------------------------- *)

let test_union_pipeline () =
  let spec =
    { (Sbt_workloads.Datagen.default_spec ~windows:2 ~events_per_window:2_000 ~batch_events:500 ()) with
      Sbt_workloads.Datagen.streams = 2
    }
  in
  let frames = Sbt_workloads.Datagen.frames spec in
  let cfg = Runtime.Config.make () in
  let r = Runtime.run cfg (Pipeline.union_count ()) frames in
  Alcotest.(check int) "two windows" 2 (List.length r.Runtime.results);
  List.iter
    (fun (_, sealed) ->
      let rows = D.open_result ~egress_key sealed in
      Alcotest.(check int32) "union counts both streams" 2000l rows.(0).(0))
    r.Runtime.results;
  let records =
    List.concat_map (fun b -> Sbt_attest.Log.open_batch ~key:egress_key b) r.Runtime.audit
  in
  Alcotest.(check bool) "verifies" true
    (Sbt_attest.Verifier.ok (Sbt_attest.Verifier.verify r.Runtime.verifier_spec records))

(* --- TEE identity quotes ---------------------------------------------------- *)

let device_key = Bytes.of_string "device-attest-k!"

let manifest =
  [ ("sbt-dataplane", "1.0"); ("sbt-primitives", "1.0"); ("optee-model", "2.3") ]

let test_quote_roundtrip () =
  let m = Quote.measure ~components:manifest in
  let nonce = Bytes.of_string "fresh-challenge" in
  let q = Quote.issue ~device_key m ~nonce in
  Alcotest.(check bool) "verifies" true (Quote.verify ~device_key ~expected:m ~nonce q);
  (* Serialization roundtrip. *)
  let q' = Quote.quote_of_bytes (Quote.quote_bytes q) in
  Alcotest.(check bool) "roundtrip verifies" true (Quote.verify ~device_key ~expected:m ~nonce q')

let test_quote_rejects_wrong_code () =
  let m = Quote.measure ~components:manifest in
  let tampered = Quote.measure ~components:(("sbt-dataplane", "evil") :: List.tl manifest) in
  let nonce = Bytes.of_string "fresh-challenge" in
  let q = Quote.issue ~device_key tampered ~nonce in
  Alcotest.(check bool) "wrong measurement rejected" false
    (Quote.verify ~device_key ~expected:m ~nonce q)

let test_quote_rejects_replay () =
  let m = Quote.measure ~components:manifest in
  let q = Quote.issue ~device_key m ~nonce:(Bytes.of_string "challenge-1") in
  Alcotest.(check bool) "stale nonce rejected" false
    (Quote.verify ~device_key ~expected:m ~nonce:(Bytes.of_string "challenge-2") q)

let test_quote_rejects_forged_key () =
  let m = Quote.measure ~components:manifest in
  let nonce = Bytes.of_string "c" in
  let q = Quote.issue ~device_key:(Bytes.of_string "attacker-key-16b") m ~nonce in
  Alcotest.(check bool) "forged device key rejected" false
    (Quote.verify ~device_key ~expected:m ~nonce q)

let () =
  Alcotest.run "udf-quote"
    [
      ( "udf",
        [
          Alcotest.test_case "certify/verify" `Quick test_certify_verify;
          Alcotest.test_case "fingerprint distinguishes" `Quick test_fingerprint_distinguishes;
          Alcotest.test_case "map end to end" `Quick test_udf_map_end_to_end;
          Alcotest.test_case "predicate end to end" `Quick test_udf_predicate_end_to_end;
          Alcotest.test_case "uncertified rejected" `Quick test_uncertified_udf_rejected;
          Alcotest.test_case "udf audited" `Quick test_udf_audited;
        ] );
      ("union", [ Alcotest.test_case "two-stream union" `Quick test_union_pipeline ]);
      ( "quote",
        [
          Alcotest.test_case "roundtrip" `Quick test_quote_roundtrip;
          Alcotest.test_case "wrong code rejected" `Quick test_quote_rejects_wrong_code;
          Alcotest.test_case "replay rejected" `Quick test_quote_rejects_replay;
          Alcotest.test_case "forged key rejected" `Quick test_quote_rejects_forged_key;
        ] );
    ]
