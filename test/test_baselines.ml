(* Tests for the comparison baselines: hash-based commodity engines, the
   SecureStreams-style per-operator-enclave model, the LZSS generic
   compressor, and the std::vector-style growable vector. *)

module H = Sbt_baselines.Hash_engine
module SS = Sbt_baselines.Secure_streams
module Lzss = Sbt_baselines.Lzss
module V = Sbt_baselines.Growable_vector
module Pool = Sbt_umem.Page_pool
module U = Sbt_umem.Uarray
module B = Sbt_workloads.Benchmarks
module Datagen = Sbt_workloads.Datagen
module Frame = Sbt_net.Frame

let frames () =
  Datagen.frames (Datagen.default_spec ~windows:3 ~events_per_window:5_000 ~batch_events:1_000 ())

let reference_sums frames =
  let sums = Hashtbl.create 8 in
  List.iter
    (fun f ->
      match f with
      | Frame.Watermark _ -> ()
      | Frame.Events { payload; _ } ->
          Array.iter
            (fun e ->
              let w = Int32.to_int e.(2) / 1000 in
              let cur = Option.value ~default:0L (Hashtbl.find_opt sums w) in
              Hashtbl.replace sums w (Int64.add cur (Int64.of_int32 e.(1))))
            (Frame.unpack_events ~width:3 payload))
    frames;
  Hashtbl.fold (fun w s acc -> (w, s) :: acc) sums [] |> List.sort compare

let test_hash_engines_correct () =
  let fs = frames () in
  let expected = reference_sums fs in
  List.iter
    (fun flavor ->
      let r = H.run_win_sum flavor ~window_ticks:1000 fs in
      Alcotest.(check bool) (H.flavor_name flavor ^ " sums") true (r.H.window_sums = expected);
      Alcotest.(check int) "events" 15_000 r.H.events;
      Alcotest.(check bool) "heap tracked" true (r.H.peak_live_words > 0))
    [ H.Flink_like; H.Esper_like; H.Sensorbee_like ]

let test_hash_engine_rejects_ciphertext () =
  let enc =
    Datagen.frames
      { (Datagen.default_spec ~windows:1 ~events_per_window:100 ~batch_events:100 ()) with
        Datagen.encrypted = true
      }
  in
  Alcotest.check_raises "ciphertext refused"
    (Invalid_argument "Hash_engine.run_win_sum: cleartext frames only") (fun () ->
      ignore (H.run_win_sum H.Flink_like ~window_ticks:1000 enc))

let test_secure_streams_correct () =
  let fs = frames () in
  let expected = reference_sums fs in
  let r = SS.run_win_sum ~window_ticks:1000 fs in
  Alcotest.(check bool) "sums" true (r.SS.window_sums = expected);
  Alcotest.(check bool) "hops paid" true (r.SS.hops >= 2 * 15);
  Alcotest.(check bool) "bytes re-encrypted" true (r.SS.bytes_reencrypted > 0)

(* --- lzss ---------------------------------------------------------------------- *)

let test_lzss_roundtrips () =
  List.iter
    (fun s ->
      let b = Bytes.of_string s in
      Alcotest.(check string) "roundtrip" s (Bytes.to_string (Lzss.decompress (Lzss.compress b))))
    [
      "";
      "a";
      "aaaaaaaaaaaaaaaaaaaaaaaaa";
      "abcabcabcabcabcabcabcabc";
      "no repeats here: qwertyuiop";
      String.concat "" (List.init 50 (fun i -> Printf.sprintf "record-%06d;" (i / 3)));
    ]

let test_lzss_compresses_repetitive () =
  let b = Bytes.of_string (String.concat "" (List.init 200 (fun _ -> "same-old-data "))) in
  Alcotest.(check bool) "ratio > 3" true (Lzss.ratio b > 3.0)

let prop_lzss_roundtrip =
  QCheck.Test.make ~name:"lzss roundtrip" ~count:200 QCheck.string (fun s ->
      Bytes.to_string (Lzss.decompress (Lzss.compress (Bytes.of_string s))) = s)

let prop_lzss_binary_roundtrip =
  QCheck.Test.make ~name:"lzss binary roundtrip" ~count:50
    QCheck.(list (int_bound 255))
    (fun bytes ->
      let b = Bytes.init (List.length bytes) (fun i -> Char.chr (List.nth bytes i)) in
      Bytes.equal (Lzss.decompress (Lzss.compress b)) b)

let test_columnar_beats_lzss_on_audit_records () =
  (* The Figure 12 claim in miniature: domain-specific columnar coding
     beats the generic LZ-class compressor on audit-record streams. *)
  let records =
    List.concat
      (List.init 200 (fun i ->
           [
             Sbt_attest.Record.Ingress { ts = (i * 37) + 1; uarray = 3 * i; stream = 0; seq = i };
             Sbt_attest.Record.Windowing
               { ts = (i * 37) + 2; data_in = 3 * i; win_no = i / 10; data_out = (3 * i) + 1 };
             Sbt_attest.Record.Execution
               {
                 ts = (i * 37) + 9;
                 op = 0;
                 inputs = [ (3 * i) + 1 ];
                 outputs = [ (3 * i) + 2 ];
                 hints = [];
               };
           ]))
  in
  let raw = Sbt_attest.Record.encode_all records in
  let columnar = Bytes.length (Sbt_attest.Columnar.compress records) in
  let generic = Bytes.length (Lzss.compress raw) in
  Alcotest.(check bool)
    (Printf.sprintf "columnar %d < lzss %d" columnar generic)
    true (columnar < generic)

(* --- growable vector (std::vector baseline) ------------------------------------ *)

let pool () = Pool.create ~budget_bytes:(64 * 1024 * 1024)

let test_vector_growth_and_relocation () =
  let p = pool () in
  let v = V.create ~pool:p ~width:1 () in
  for i = 0 to 999 do
    V.append v [| Int32.of_int i |]
  done;
  Alcotest.(check int) "length" 1000 (V.length v);
  Alcotest.(check int32) "content" 999l (V.get_field v 999 0);
  (* Plain doubling from 16: 32, 64, ..., 1024. *)
  Alcotest.(check int) "capacity doubled" 1024 (V.capacity v);
  Alcotest.(check int) "one relocation per doubling" 6 (V.relocations v);
  V.free v;
  Alcotest.(check int) "pages released" 0 (Pool.committed_pages p)

let test_vector_matches_uarray_content () =
  let p = pool () in
  let v = V.create ~pool:p ~width:3 () in
  let ua = U.create ~id:9 ~pool:p ~width:3 ~capacity:100 () in
  for i = 0 to 99 do
    let f = [| Int32.of_int i; Int32.of_int (2 * i); Int32.of_int (3 * i) |] in
    V.append v f;
    U.append ua f
  done;
  let same = ref true in
  for i = 0 to 99 do
    for j = 0 to 2 do
      if V.get_field v i j <> U.get_field ua i j then same := false
    done
  done;
  Alcotest.(check bool) "identical contents" true !same

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "baselines"
    [
      ( "hash-engine",
        [
          Alcotest.test_case "three flavors correct" `Quick test_hash_engines_correct;
          Alcotest.test_case "rejects ciphertext" `Quick test_hash_engine_rejects_ciphertext;
        ] );
      ("secure-streams", [ Alcotest.test_case "correct with hops" `Quick test_secure_streams_correct ]);
      ( "lzss",
        [
          Alcotest.test_case "roundtrips" `Quick test_lzss_roundtrips;
          Alcotest.test_case "compresses repetitive" `Quick test_lzss_compresses_repetitive;
          q prop_lzss_roundtrip;
          q prop_lzss_binary_roundtrip;
          Alcotest.test_case "columnar beats lzss" `Quick test_columnar_beats_lzss_on_audit_records;
        ] );
      ( "growable-vector",
        [
          Alcotest.test_case "growth and relocation" `Quick test_vector_growth_and_relocation;
          Alcotest.test_case "matches uArray content" `Quick test_vector_matches_uarray_content;
        ] );
    ]
