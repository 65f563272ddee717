(* Tests for the workload generators: the zipf sampler, the frame-stream
   generator's structure (watermarks, batching, window manifests), and
   the benchmark definitions. *)

module Zipf = Sbt_workloads.Zipf
module Datagen = Sbt_workloads.Datagen
module B = Sbt_workloads.Benchmarks
module Frame = Sbt_net.Frame
module Event = Sbt_core.Event
module Rng = Sbt_crypto.Rng

(* --- zipf ------------------------------------------------------------------ *)

let test_zipf_bounds () =
  let z = Zipf.create ~n:100 ~s:1.1 in
  let rng = Rng.create ~seed:1L in
  for _ = 1 to 10_000 do
    let v = Zipf.sample z rng in
    if v < 0 || v >= 100 then Alcotest.fail "zipf out of range"
  done

let test_zipf_skew () =
  let z = Zipf.create ~n:1000 ~s:1.1 in
  let rng = Rng.create ~seed:2L in
  let counts = Array.make 1000 0 in
  for _ = 1 to 50_000 do
    let v = Zipf.sample z rng in
    counts.(v) <- counts.(v) + 1
  done;
  (* Rank 0 must dominate rank 500 heavily under s=1.1. *)
  Alcotest.(check bool) "rank 0 dominant" true (counts.(0) > 20 * max 1 counts.(500))

let test_zipf_uniform_limit () =
  let z = Zipf.create ~n:10 ~s:0.0 in
  let rng = Rng.create ~seed:3L in
  let counts = Array.make 10 0 in
  let n = 50_000 in
  for _ = 1 to n do
    counts.(Zipf.sample z rng) <- counts.(Zipf.sample z rng) + 1
  done;
  Array.iter
    (fun c -> if abs (c - (n / 10)) > n / 20 then Alcotest.failf "not uniform: %d" c)
    counts

(* --- datagen ----------------------------------------------------------------- *)

let spec () = Datagen.default_spec ~windows:3 ~events_per_window:2_500 ~batch_events:1_000 ()

let test_frame_structure () =
  let s = spec () in
  let frames = Datagen.frames s in
  (* Per window: 2 full batches + 1 partial + the watermark. *)
  let events_frames, watermarks =
    List.partition (function Frame.Events _ -> true | Frame.Watermark _ -> false) frames
  in
  Alcotest.(check int) "three watermarks" 3 (List.length watermarks);
  Alcotest.(check int) "nine event frames" 9 (List.length events_frames);
  let total =
    List.fold_left
      (fun acc f -> match f with Frame.Events { events; _ } -> acc + events | _ -> acc)
      0 frames
  in
  Alcotest.(check int) "total events" (Datagen.total_events s) total

let test_watermark_ordering () =
  (* Every event must precede the watermark that covers it. *)
  let s = spec () in
  let frames = Datagen.frames s in
  let max_wm = ref 0 in
  List.iter
    (fun f ->
      match f with
      | Frame.Watermark { value; _ } ->
          Alcotest.(check bool) "monotone" true (value > !max_wm);
          max_wm := value
      | Frame.Events { payload; _ } ->
          Array.iter
            (fun e ->
              let ts = Int32.to_int e.(2) in
              if ts < !max_wm then Alcotest.failf "event ts %d behind watermark %d" ts !max_wm)
            (Frame.unpack_events ~width:3 payload))
    frames

let test_window_manifest_matches_payload () =
  let s = spec () in
  List.iter
    (fun f ->
      match f with
      | Frame.Watermark _ -> ()
      | Frame.Events { payload; windows; _ } ->
          let actual = Hashtbl.create 4 in
          Array.iter
            (fun e -> Hashtbl.replace actual (Int32.to_int e.(2) / s.Datagen.window_ticks) ())
            (Frame.unpack_events ~width:3 payload);
          let actual = List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) actual []) in
          Alcotest.(check (list int)) "manifest" actual windows)
    (Datagen.frames s)

let test_determinism () =
  let a = Datagen.frames (spec ()) in
  let b = Datagen.frames (spec ()) in
  Alcotest.(check bool) "same frames" true (a = b)

let test_encrypted_stream () =
  let s = { (spec ()) with Datagen.encrypted = true } in
  let frames = Datagen.frames s in
  List.iter
    (fun f ->
      match f with
      | Frame.Events { encrypted; _ } -> Alcotest.(check bool) "flag set" true encrypted
      | Frame.Watermark _ -> ())
    frames;
  (* Decrypting recovers the cleartext stream. *)
  let clear = Datagen.frames (spec ()) in
  let decrypted =
    List.map
      (Frame.decrypt_payload ~key:(Sbt_crypto.Aead.of_key s.Datagen.key) ~stream_nonce:0L)
      frames
  in
  Alcotest.(check bool) "matches cleartext" true (decrypted = clear)

let test_two_streams () =
  let s = { (spec ()) with Datagen.streams = 2 } in
  let frames = Datagen.frames s in
  let streams =
    List.filter_map (function Frame.Events { stream; _ } -> Some stream | _ -> None) frames
    |> List.sort_uniq compare
  in
  Alcotest.(check (list int)) "both streams present" [ 0; 1 ] streams

(* Words allocated per generated event (minor + major - promoted, so each
   word counts once whether or not it was promoted), a host-cost proxy for
   the source.  What remains is the record [gen_record] returns, its boxed
   timestamp and the frames: about 24 words on the power shape and 18 on
   the fps shape, so the bound of 30 leaves room for other compilers. *)
let words_per_event (b : B.t) =
  Gc.full_major ();
  let minor0, promoted0, major0 = Gc.counters () in
  ignore (Sys.opaque_identity (B.frames b));
  let minor1, promoted1, major1 = Gc.counters () in
  (minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0))
  /. float_of_int (Datagen.total_events b.B.spec)

let test_allocation_per_event () =
  List.iter
    (fun (name, b) ->
      let w = words_per_event b in
      if w > 30.0 then Alcotest.failf "%s: %.1f words per event (at most 30)" name w)
    [
      ("power", B.power ~windows:2 ~events_per_window:60_000 ~batch_events:20_000 ());
      ("fps", B.fps ~windows:2 ~events_per_window:8_000 ~batch_events:64 ());
    ]

(* --- golden frame bytes ------------------------------------------------------ *)

(* A stdlib MD5 over every frame's header fields, payload and MAC.  The
   expected digests were taken before the word-wise AES-CTR, the native-int
   SHA-256 and the datagen sort skip, so these cases pin the cipher, the
   tag and the source's event order together.  The digests of the
   tagged sources were re-taken once, when the AEAD tag replaced the
   HMAC; their header and payload bytes did not change. *)
let frames_digest frames =
  let b = Buffer.create 65536 in
  let int n = Buffer.add_string b (string_of_int n); Buffer.add_char b ';' in
  let blob x = int (Bytes.length x); Buffer.add_bytes b x in
  List.iter
    (function
      | Frame.Events { seq; stream; events; windows; payload; encrypted; mac } ->
          Buffer.add_char b (if encrypted then 'E' else 'e');
          List.iter int (seq :: stream :: events :: windows);
          blob payload;
          blob mac
      | Frame.Watermark { seq; value } ->
          Buffer.add_char b 'W';
          int seq;
          int value)
    frames;
  Digest.to_hex (Digest.string (Buffer.contents b))

let sealed (b : B.t) = Datagen.frames { b.B.spec with Datagen.seed = 1L; authenticated = true }

let golden_cases =
  [
    (* edgebench's taxi-enc source: encrypted and tagged, 5,000-event frames *)
    ( "taxi-enc distinct",
      "b211ad03bc7d22fe6fe441c6d1a9172c",
      fun () -> sealed (B.distinct ~windows:16 ~events_per_window:10_000 ~batch_events:5_000 ~encrypted:true ()) );
    (* 777 x 12 bytes: every full frame ends in a partial AES block *)
    ( "distinct 777-event frames",
      "139b6056f4adbb74d786b9e7c5d47323",
      fun () -> sealed (B.distinct ~windows:4 ~events_per_window:10_000 ~batch_events:777 ~encrypted:true ()) );
    ( "power",
      "aba85052d65a9a00d3400d37713c145e",
      fun () -> B.frames (B.power ~windows:4 ~events_per_window:20_000 ~batch_events:5_000 ()) );
    (* two streams, so two CTR nonces *)
    ( "join",
      "48ecc68a35d3d91973565baf329f0243",
      fun () -> sealed (B.join ~windows:2 ~events_per_window:20_000 ~batch_events:5_000 ~encrypted:true ()) );
    ( "fps 64-event batches",
      "33eb512275c5d94615525c7511433256",
      fun () -> B.frames (B.fps ~windows:2 ~events_per_window:8_000 ~batch_events:64 ()) );
    ( "20% disorder",
      "1adb33b16b4f09b177f426969a30dff9",
      fun () ->
        let b = B.vitals ~windows:4 ~events_per_window:5_000 ~batch_events:1_000 ~encrypted:true () in
        Datagen.frames
          {
            b.B.spec with
            Datagen.disorder = Sbt_fault.Fault.disorder_plan ~seed:42L ~rate:0.2 ();
            watermark = Datagen.Heuristic 0;
            authenticated = true;
          } );
  ]

(* The four edgebench sources at seed 1, built by [Edgebench.Workload.make]
   exactly as the benchmark builds them: taxi-enc (encrypted and tagged, the
   same source as "taxi-enc distinct" above), and grid-clear, join-egress
   and fps-small (clear).  The digests were taken with [frames_digest]
   before the flat record store and the unboxed generator state, so they
   pin the benchmark's input across both. *)
let edgebench_cases =
  List.map
    (fun (name, expected) ->
      ( "edgebench " ^ name,
        expected,
        fun () ->
          match Edgebench.Workload.make name ~seed:1 with
          | Ok w -> B.frames w.Edgebench.Workload.bench
          | Error msg -> Alcotest.fail msg ))
    [
      ("taxi-enc", "b211ad03bc7d22fe6fe441c6d1a9172c");
      ("grid-clear", "61247de11b2b352b8518e3cbf74fd3b3");
      ("join-egress", "4ad70e3bf9d0b03682ae3dacb5818202");
      ("fps-small", "eaeee594dfd76ac92a0771940dd77a2c");
    ]

let golden_tests =
  List.map
    (fun (name, expected, frames) ->
      Alcotest.test_case name `Quick (fun () ->
          Alcotest.(check string) "frame digest" expected (frames_digest (frames ()))))
    (golden_cases @ edgebench_cases)

(* --- benchmarks ----------------------------------------------------------------- *)

let test_six_benchmarks () =
  (* The paper's six plus the PR 7 fusion showcase. *)
  let all = B.all ~windows:1 ~events_per_window:100 ~batch_events:50 () in
  Alcotest.(check int) "seven" 7 (List.length all);
  Alcotest.(check (list string)) "names"
    [ "TopK"; "Distinct"; "Join"; "WinSum"; "FpsChain"; "Filter"; "Power" ]
    (List.map (fun b -> b.B.name) all)

let ctor_names = [ "topk"; "distinct"; "join"; "winsum"; "fps"; "filter"; "power"; "vitals" ]

let test_by_name () =
  List.iter (fun n -> Alcotest.(check bool) n true (B.by_name n <> None)) ctor_names;
  Alcotest.(check bool) "unknown" true (B.by_name "nope" = None)

(* A generator's stream is a function of its spec: calling [B.frames]
   twice on one value, or on a second value from the same constructor,
   gives the same frames.  Random-walk generators (WinSum, Vitals) restart
   their walk with each stream to meet this. *)

let prop_frames_depend_only_on_spec =
  QCheck.Test.make ~name:"frames depend only on the spec" ~count:40
    QCheck.(
      make
        Gen.(
          tup5 (oneofl ctor_names) (1 -- 3) (1 -- 2_000) (1 -- 700)
            (pair bool (map Int64.of_int nat))))
    (fun (name, windows, events_per_window, batch_events, (encrypted, seed)) ->
      let ctor = Option.get (B.by_name name) in
      let make () =
        let b = ctor ~windows ~events_per_window ~batch_events ~encrypted () in
        { b with B.spec = { b.B.spec with Datagen.seed } }
      in
      let b = make () in
      let first = B.frames b in
      first = B.frames b && first = B.frames (make ()))

let test_taxi_distinct_cardinality () =
  (* The taxi model must stay within its 11k-id universe. *)
  let b = B.distinct ~windows:1 ~events_per_window:20_000 ~batch_events:5_000 () in
  let ids = Hashtbl.create 1024 in
  List.iter
    (fun f ->
      match f with
      | Frame.Events { payload; _ } ->
          Array.iter (fun e -> Hashtbl.replace ids e.(0) ()) (Frame.unpack_events ~width:3 payload)
      | Frame.Watermark _ -> ())
    (B.frames b);
  Alcotest.(check bool) "<= 11000 ids" true (Hashtbl.length ids <= 11_000);
  Alcotest.(check bool) "many ids" true (Hashtbl.length ids > 1_000)

let test_power_schema () =
  let b = B.power ~windows:1 ~events_per_window:5_000 ~batch_events:1_000 () in
  Alcotest.(check int) "16-byte events" 4 b.B.pipeline.Sbt_core.Pipeline.schema.Event.width;
  List.iter
    (fun f ->
      match f with
      | Frame.Events { payload; _ } ->
          Array.iter
            (fun e ->
              let plugkey = Int32.to_int e.(0) in
              let house = Int32.to_int e.(3) in
              Alcotest.(check int) "plugkey encodes house" house (plugkey lsr 8);
              Alcotest.(check bool) "plug < 20" true (plugkey land 0xFF < 20);
              Alcotest.(check bool) "house < 40" true (house < 40))
            (Frame.unpack_events ~width:4 payload)
      | Frame.Watermark _ -> ())
    (B.frames b)

let test_join_two_streams () =
  let b = B.join ~windows:1 ~events_per_window:1_000 ~batch_events:200 () in
  Alcotest.(check int) "pipeline declares 2 streams" 2 b.B.pipeline.Sbt_core.Pipeline.streams;
  Alcotest.(check int) "spec generates 2 streams" 2 b.B.spec.Datagen.streams

let () =
  Alcotest.run "workloads"
    [
      ( "zipf",
        [
          Alcotest.test_case "bounds" `Quick test_zipf_bounds;
          Alcotest.test_case "skew" `Quick test_zipf_skew;
          Alcotest.test_case "uniform limit" `Quick test_zipf_uniform_limit;
        ] );
      ( "datagen",
        [
          Alcotest.test_case "frame structure" `Quick test_frame_structure;
          Alcotest.test_case "watermark ordering" `Quick test_watermark_ordering;
          Alcotest.test_case "window manifest" `Quick test_window_manifest_matches_payload;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "encrypted stream" `Quick test_encrypted_stream;
          Alcotest.test_case "two streams" `Quick test_two_streams;
          Alcotest.test_case "allocation per event" `Quick test_allocation_per_event;
        ] );
      ("golden", golden_tests);
      ( "benchmarks",
        [
          Alcotest.test_case "six benchmarks" `Quick test_six_benchmarks;
          Alcotest.test_case "by_name" `Quick test_by_name;
          Alcotest.test_case "taxi cardinality" `Quick test_taxi_distinct_cardinality;
          Alcotest.test_case "power schema" `Quick test_power_schema;
          Alcotest.test_case "join streams" `Quick test_join_two_streams;
          QCheck_alcotest.to_alcotest prop_frames_depend_only_on_spec;
        ] );
    ]
