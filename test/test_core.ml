(* Tests for the engine core: opaque references, the data plane's request
   surface and version behaviour, end-to-end pipeline runs checked against
   plain reference computations, attestation over real runs (including
   tampering), and the runner's scaling output. *)

module D = Sbt_core.Dataplane
module Opaque = Sbt_core.Opaque
module Pipeline = Sbt_core.Pipeline
module Runtime = Sbt_core.Runtime
module Runner = Sbt_core.Runner
module Event = Sbt_core.Event
module P = Sbt_prim.Primitive
module B = Sbt_workloads.Benchmarks
module Frame = Sbt_net.Frame
module V = Sbt_attest.Verifier

let egress_key = Bytes.of_string "sbt-egress-key16"

(* --- opaque references ------------------------------------------------------ *)

let mk_ua () =
  let pool = Sbt_umem.Page_pool.create ~budget_bytes:(1024 * 1024) in
  Sbt_umem.Uarray.create ~id:0 ~pool ~width:1 ~capacity:4 ()

let test_opaque_register_resolve () =
  let t = Opaque.create ~rng:(Sbt_crypto.Rng.create ~seed:1L) in
  let ua = mk_ua () in
  let r = Opaque.register t ua in
  Alcotest.(check bool) "resolves" true (Opaque.resolve t r == ua);
  Alcotest.(check int) "one live" 1 (Opaque.live_count t);
  Opaque.remove t r;
  Alcotest.(check int) "zero live" 0 (Opaque.live_count t)

let test_opaque_rejects_fabricated () =
  let t = Opaque.create ~rng:(Sbt_crypto.Rng.create ~seed:1L) in
  ignore (Opaque.register t (mk_ua ()));
  (try
     ignore (Opaque.resolve t 0xDEADBEEFL);
     Alcotest.fail "fabricated reference accepted"
   with Opaque.Invalid_reference 0xDEADBEEFL -> ());
  (try
     Opaque.remove t 42L;
     Alcotest.fail "double free accepted"
   with Opaque.Invalid_reference _ -> ())

let prop_opaque_fabricated_never_resolves =
  QCheck.Test.make ~name:"random refs never resolve" ~count:200 QCheck.int64 (fun guess ->
      let t = Opaque.create ~rng:(Sbt_crypto.Rng.create ~seed:5L) in
      let real = Opaque.register t (mk_ua ()) in
      Int64.equal guess real
      ||
      try
        ignore (Opaque.resolve t guess);
        false
      with Opaque.Invalid_reference _ -> true)

(* --- dataplane units ---------------------------------------------------------- *)

let mk_dp ?(version = D.Full) ?(secure_mb = 64) () =
  D.create (D.Config.make ~version ~secure_mb ())

let payload_of rows = Frame.pack_events ~width:3 (Array.of_list (List.map Array.of_list rows))

let ingest dp rows =
  match
    D.call dp
      (D.R_ingest_events
         { payload = payload_of rows; encrypted = false; stream = 0; seq = 0; mac = Bytes.empty;
           windowing = None })
  with
  | D.Ingested { outs = [ out ]; _ } -> out.D.ref_
  | D.Ingested _ -> Alcotest.fail "ingest without windowing must return one batch"
  | D.Refused _ -> Alcotest.fail "ingest refused"

let test_dataplane_ingest_and_sort () =
  let dp = mk_dp () in
  let r = ingest dp [ [ 3l; 30l; 0l ]; [ 1l; 10l; 1l ]; [ 2l; 20l; 2l ] ] in
  match
    D.call dp
      (D.R_invoke
         {
           chain = [ (P.Sort, [ D.P_key_field 0 ]) ];
           inputs = [ r ];
           trigger = None;
           hints = [];
           retire_inputs = true;
         })
  with
  | [ out ] ->
      Alcotest.(check int) "3 events" 3 out.D.events;
      (* Egress it and check the order through the sealed result. *)
      let sealed = D.call dp (D.R_egress { input = out.D.ref_; window = 0 }) in
      let rows = D.open_result ~egress_key sealed in
      Alcotest.(check int32) "sorted first key" 1l rows.(0).(0);
      Alcotest.(check int32) "sorted last key" 3l rows.(2).(0)
  | _ -> Alcotest.fail "sort must have one output"

let test_dataplane_rejects_fabricated_ref () =
  let dp = mk_dp () in
  ignore (ingest dp [ [ 1l; 2l; 3l ] ]);
  try
    ignore
      (D.call dp
         (D.R_invoke
            {
              chain = [ (P.Count, []) ];
              inputs = [ 0x1234L ];
              trigger = None;
              hints = [];
              retire_inputs = true;
            }));
    Alcotest.fail "fabricated opaque reference accepted"
  with Opaque.Invalid_reference _ -> ()

let test_dataplane_rejects_wrong_arity () =
  let dp = mk_dp () in
  let a = ingest dp [ [ 1l; 2l; 3l ] ] in
  try
    ignore
      (D.call dp
         (D.R_invoke
            { chain = [ (P.Join, []) ]; inputs = [ a ]; trigger = None; hints = []; retire_inputs = false }));
    Alcotest.fail "join with one input accepted"
  with D.Rejected _ -> ()

let test_dataplane_retire_semantics () =
  let dp = mk_dp () in
  let a = ingest dp [ [ 1l; 2l; 3l ]; [ 4l; 5l; 6l ] ] in
  (* Count with retire: the input ref dies. *)
  Alcotest.(check int) "one count output" 1
    (List.length
       (D.call dp
          (D.R_invoke
             { chain = [ (P.Count, []) ]; inputs = [ a ]; trigger = None; hints = []; retire_inputs = true })));
  try
    ignore
      (D.call dp
         (D.R_invoke
            { chain = [ (P.Count, []) ]; inputs = [ a ]; trigger = None; hints = []; retire_inputs = true }));
    Alcotest.fail "stale reference accepted"
  with Opaque.Invalid_reference _ -> ()

let ingress_key = Sbt_crypto.Aead.of_key (Bytes.of_string "sbt-ingress-k16!")

(* A frame as an encrypting source sends it: CTR under the stream's nonce,
   sealed as it is encrypted. *)
let encrypted_frame ~seq rows =
  match
    Frame.encrypt_payload ~key:ingress_key ~stream_nonce:0L
      (Frame.Events
         { seq; stream = 0; events = List.length rows; windows = [ 0 ]; payload = payload_of rows;
           encrypted = false; mac = Bytes.empty })
  with
  | Frame.Events { payload; mac; _ } -> (payload, mac)
  | Frame.Watermark _ -> assert false

let ingest_frame dp (stream, seq, encrypted, payload, mac) =
  D.call dp (D.R_ingest_events { payload; encrypted; stream; seq; mac; windowing = None })

let test_dataplane_encrypted_ingest () =
  let dp = mk_dp () in
  let payload, mac = encrypted_frame ~seq:3 [ [ 7l; 70l; 0l ]; [ 8l; 80l; 1l ] ] in
  match ingest_frame dp (0, 3, true, payload, mac) with
  | D.Ingested { outs = [ out ]; _ } ->
      let sealed = D.call dp (D.R_egress { input = out.D.ref_; window = 0 }) in
      let back = D.open_result ~egress_key sealed in
      Alcotest.(check int32) "decrypted inside TEE" 70l back.(0).(1)
  | D.Ingested _ -> Alcotest.fail "ingest without windowing must return one batch"
  | D.Refused _ -> Alcotest.fail "encrypted ingest refused"

(* Each forgery of a sealed encrypted frame is refused inside the TEE
   before anything is spent on it: a flipped ciphertext bit (CTR is
   malleable), a stripped tag, the [encrypted] flag cleared, and the tag
   replayed at the next sequence number. *)
let test_encrypted_frame_forgeries_refused () =
  let payload, mac = encrypted_frame ~seq:3 [ [ 7l; 70l; 0l ]; [ 8l; 80l; 1l ] ] in
  let flipped = Bytes.copy payload in
  Bytes.set flipped 5 (Char.chr (Char.code (Bytes.get flipped 5) lxor 0x10));
  List.iter
    (fun (name, frame) ->
      match ingest_frame (mk_dp ()) frame with
      | D.Refused { reason = D.Corrupt_ingress; _ } -> ()
      | D.Refused { reason = D.Pool_pressure; _ } -> Alcotest.failf "%s: refused as pool pressure" name
      | D.Ingested _ -> Alcotest.failf "%s: ingested" name)
    [
      ("bit flipped", (0, 3, true, flipped, mac));
      ("tag stripped", (0, 3, true, payload, Bytes.empty));
      ("encrypted flipped", (0, 3, false, payload, mac));
      ("next seq", (0, 4, true, payload, mac));
    ]

let test_dataplane_result_tamper_detected () =
  let dp = mk_dp () in
  let r = ingest dp [ [ 1l; 2l; 3l ] ] in
  let sealed = D.call dp (D.R_egress { input = r; window = 0 }) in
  let bad = Bytes.copy sealed.D.cipher in
  Bytes.set bad 0 (Char.chr (Char.code (Bytes.get bad 0) lxor 0xFF));
  Alcotest.check_raises "MAC failure"
    (Invalid_argument "Dataplane.open_result: MAC verification failed") (fun () ->
      ignore (D.open_result ~egress_key { sealed with D.cipher = bad }))

let test_dataplane_version_accounting () =
  (* Full pays world switches; Insecure pays none; IOviaOS additionally
     pays boundary copies. *)
  let run version =
    let dp = mk_dp ~version () in
    ignore (ingest dp [ [ 1l; 2l; 3l ]; [ 4l; 5l; 6l ] ]);
    D.stats dp
  in
  let full = run D.Full in
  let insecure = run D.Insecure in
  let via_os = run D.Io_via_os in
  Alcotest.(check bool) "full switches > 0" true (full.D.switch_pairs > 0);
  Alcotest.(check int) "insecure switches = 0" 0 insecure.D.switch_pairs;
  Alcotest.(check (float 0.0)) "full pays no copy" 0.0 full.D.modeled_copy_ns;
  Alcotest.(check bool) "via-os pays copy" true (via_os.D.modeled_copy_ns > 0.0)

let test_dataplane_backpressure () =
  (* A tiny pool: ingesting enough data crosses the threshold and stalls. *)
  let cfg = D.Config.make ~secure_mb:1 ~backpressure_threshold:0.3 () in
  let dp = D.create cfg in
  let big_rows = List.init 30_000 (fun i -> [ Int32.of_int i; 1l; 0l ]) in
  (match
     D.call dp
       (D.R_ingest_events
          { payload = payload_of big_rows; encrypted = false; stream = 0; seq = 0;
            mac = Bytes.empty; windowing = None })
   with
  | D.Ingested { stalled_ns; _ } -> Alcotest.(check (float 0.0)) "first batch unstalled" 0.0 stalled_ns
  | D.Refused _ -> Alcotest.fail "first batch refused");
  match
    D.call dp
      (D.R_ingest_events
         { payload = payload_of big_rows; encrypted = false; stream = 0; seq = 1; mac = Bytes.empty;
           windowing = None })
  with
  | D.Ingested { stalled_ns; _ } ->
      Alcotest.(check bool) "second batch stalled" true (stalled_ns > 0.0);
      Alcotest.(check int) "stall counted" 1 (D.stats dp).D.backpressure_stalls
  | D.Refused _ -> Alcotest.fail "second batch refused"

let test_dataplane_debug_entry () =
  let dp = mk_dp () in
  ignore (ingest dp [ [ 1l; 2l; 3l ] ]);
  let s = D.debug_dump dp in
  Alcotest.(check bool) "mentions refs" true (String.length s > 0)

(* --- end-to-end pipelines vs reference computations ---------------------------- *)

(* Decode every event from (cleartext) frames: the reference view. *)
let events_of_frames ~width frames =
  List.concat_map
    (fun f ->
      match f with
      | Frame.Watermark _ -> []
      | Frame.Events { payload; encrypted; _ } ->
          if encrypted then Alcotest.fail "reference needs cleartext frames";
          Array.to_list (Frame.unpack_events ~width payload))
    frames

let window_of ts = Int32.to_int ts / Event.ticks_per_second

let run_pipeline ?(version = D.Full) (bench : B.t) =
  let frames = B.frames bench in
  let cfg = Runtime.Config.make ~version ~cores:8 () in
  (Runtime.run cfg bench.B.pipeline frames, frames)

let result_rows (r : Runtime.run_result) w =
  match List.assoc_opt w r.Runtime.results with
  | Some sealed -> D.open_result ~egress_key sealed
  | None -> Alcotest.failf "no result for window %d" w

(* Forged sealed results from a Full winsum run: each raises from
   [open_result] instead of opening to rows the edge never sealed. *)
let test_result_forgeries_rejected () =
  let r, _ = run_pipeline (B.win_sum ~windows:2 ~events_per_window:2_000 ~batch_events:500 ()) in
  let s0 = List.assoc 0 r.Runtime.results and s1 = List.assoc 1 r.Runtime.results in
  let chosen =
    Frame.pack_events ~width:s0.D.width (Array.make s0.D.events (Array.make s0.D.width 42l))
  in
  Alcotest.(check int) "genuine opens" s0.D.events (Array.length (D.open_result ~egress_key s0));
  List.iter
    (fun (name, forged) ->
      match D.open_result ~egress_key forged with
      | _ -> Alcotest.failf "%s: opened" name
      | exception Invalid_argument _ -> ())
    [
      ("tag stripped, chosen plaintext", { s0 with D.cipher = chosen; tag = Bytes.empty });
      ("cipher and tag of window 1", { s0 with D.cipher = s1.D.cipher; tag = s1.D.tag });
      ("events zeroed", { s0 with D.events = 0 });
    ]

let test_winsum_matches_reference () =
  let bench = B.win_sum ~windows:3 ~events_per_window:5_000 ~batch_events:1_000 () in
  let r, frames = run_pipeline bench in
  let events = events_of_frames ~width:3 frames in
  for w = 0 to 2 do
    let expected =
      List.fold_left
        (fun acc e -> if window_of e.(2) = w then Int64.add acc (Int64.of_int32 e.(1)) else acc)
        0L events
    in
    let rows = result_rows r w in
    let got =
      Int64.logor
        (Int64.logand (Int64.of_int32 rows.(0).(0)) 0xFFFFFFFFL)
        (Int64.shift_left (Int64.of_int32 rows.(0).(1)) 32)
    in
    Alcotest.(check int64) (Printf.sprintf "window %d sum" w) expected got
  done

let test_distinct_matches_reference () =
  let bench = B.distinct ~windows:2 ~events_per_window:5_000 ~batch_events:1_000 () in
  let r, frames = run_pipeline bench in
  let events = events_of_frames ~width:3 frames in
  for w = 0 to 1 do
    let keys = Hashtbl.create 64 in
    List.iter (fun e -> if window_of e.(2) = w then Hashtbl.replace keys e.(0) ()) events;
    let rows = result_rows r w in
    Alcotest.(check int32) (Printf.sprintf "window %d distinct" w)
      (Int32.of_int (Hashtbl.length keys))
      rows.(0).(0)
  done

let test_filter_matches_reference () =
  let bench = B.filter ~windows:2 ~events_per_window:5_000 ~batch_events:1_000 () in
  let r, frames = run_pipeline bench in
  let events = events_of_frames ~width:3 frames in
  for w = 0 to 1 do
    let expected =
      List.filter (fun e -> window_of e.(2) = w && e.(1) >= 0l && e.(1) <= 42949672l) events
    in
    let rows = result_rows r w in
    Alcotest.(check int) (Printf.sprintf "window %d kept" w) (List.length expected) (Array.length rows);
    (* Selectivity should be roughly 1% of uniform 32-bit values. *)
    let sel = float_of_int (List.length expected) /. 5000.0 in
    Alcotest.(check bool) "about 1%" true (sel > 0.002 && sel < 0.03)
  done

let test_topk_matches_reference () =
  let bench = B.topk ~windows:2 ~events_per_window:4_000 ~batch_events:1_000 () in
  let r, frames = run_pipeline bench in
  let events = events_of_frames ~width:3 frames in
  for w = 0 to 1 do
    let groups = Hashtbl.create 64 in
    List.iter
      (fun e ->
        if window_of e.(2) = w then
          Hashtbl.replace groups e.(0)
            (Int32.to_int e.(1) :: Option.value ~default:[] (Hashtbl.find_opt groups e.(0))))
      events;
    let expected =
      Hashtbl.fold
        (fun k vs acc ->
          let top = List.filteri (fun i _ -> i < 10) (List.sort (fun a b -> compare b a) vs) in
          List.map (fun v -> (Int32.to_int k, v)) top @ acc)
        groups []
      |> List.sort compare
    in
    let rows = result_rows r w in
    let got =
      Array.to_list rows
      |> List.map (fun row -> (Int32.to_int row.(0), Int32.to_int row.(1)))
      |> List.sort compare
    in
    Alcotest.(check bool) (Printf.sprintf "window %d topk" w) true (expected = got)
  done

let test_join_matches_reference () =
  let bench = B.join ~windows:2 ~events_per_window:2_000 ~batch_events:500 () in
  let r, frames = run_pipeline bench in
  (* Rebuild the two streams from frames. *)
  let left = ref [] and right = ref [] in
  List.iter
    (fun f ->
      match f with
      | Frame.Events { stream; payload; _ } ->
          let evs = Array.to_list (Frame.unpack_events ~width:3 payload) in
          if stream = 0 then left := !left @ evs else right := !right @ evs
      | Frame.Watermark _ -> ())
    frames;
  for w = 0 to 1 do
    let in_w l = List.filter (fun e -> window_of e.(2) = w) l in
    let lw = in_w !left and rw = in_w !right in
    let expected_count =
      List.fold_left
        (fun acc le ->
          acc + List.length (List.filter (fun re -> re.(0) = le.(0)) rw))
        0 lw
    in
    let rows = result_rows r w in
    Alcotest.(check int) (Printf.sprintf "window %d join size" w) expected_count (Array.length rows)
  done

let test_power_matches_reference () =
  let bench = B.power ~windows:2 ~events_per_window:5_000 ~batch_events:1_000 () in
  let r, frames = run_pipeline bench in
  let events = events_of_frames ~width:4 frames in
  for w = 0 to 1 do
    (* Reference: avg per plug; global avg of plug-avgs; per-house count of
       plugs strictly above; top-10 houses by count. *)
    let per_plug = Hashtbl.create 64 in
    List.iter
      (fun e ->
        if window_of e.(2) = w then
          Hashtbl.replace per_plug e.(0)
            (Int32.to_int e.(1) :: Option.value ~default:[] (Hashtbl.find_opt per_plug e.(0))))
      events;
    let plug_avgs =
      Hashtbl.fold
        (fun plug vs acc ->
          let avg =
            Int64.to_int
              (Int64.div
                 (Int64.of_int (List.fold_left ( + ) 0 vs))
                 (Int64.of_int (List.length vs)))
          in
          (Int32.to_int plug, avg) :: acc)
        per_plug []
    in
    let global =
      Int64.to_int
        (Int64.div
           (Int64.of_int (List.fold_left (fun a (_, v) -> a + v) 0 plug_avgs))
           (Int64.of_int (List.length plug_avgs)))
    in
    let per_house = Hashtbl.create 64 in
    List.iter
      (fun (plug, avg) ->
        if avg > global then begin
          let house = plug lsr 8 in
          Hashtbl.replace per_house house (1 + Option.value ~default:0 (Hashtbl.find_opt per_house house))
        end)
      plug_avgs;
    let expected_counts =
      Hashtbl.fold (fun h c acc -> (h, c) :: acc) per_house [] |> List.sort compare
    in
    let rows = result_rows r w in
    let got = Array.to_list rows |> List.map (fun r -> (Int32.to_int r.(0), Int32.to_int r.(1))) in
    (* The engine returns the top-10 by count; every returned (house,count)
       must match the reference counts, and the counts must be the 10
       largest. *)
    List.iter
      (fun (h, c) ->
        match List.assoc_opt h expected_counts with
        | Some c' -> Alcotest.(check int) (Printf.sprintf "w%d house %d" w h) c' c
        | None -> Alcotest.failf "w%d unexpected house %d" w h)
      got;
    let all_counts = List.map snd expected_counts |> List.sort (fun a b -> compare b a) in
    let top_counts = List.filteri (fun i _ -> i < 10) all_counts in
    let got_counts = List.map snd got |> List.sort (fun a b -> compare b a) in
    Alcotest.(check (list int)) (Printf.sprintf "w%d top counts" w) top_counts got_counts
  done

let test_encrypted_source_same_results () =
  let clear = B.win_sum ~windows:2 ~events_per_window:3_000 ~batch_events:1_000 () in
  let enc = B.win_sum ~windows:2 ~events_per_window:3_000 ~batch_events:1_000 ~encrypted:true () in
  let rc, _ = run_pipeline ~version:D.Clear_ingress clear in
  let re, _ = run_pipeline ~version:D.Full enc in
  for w = 0 to 1 do
    Alcotest.(check bool) (Printf.sprintf "window %d equal" w) true
      (result_rows rc w = result_rows re w)
  done

(* --- attestation over real runs -------------------------------------------------- *)

let records_of_run (r : Runtime.run_result) =
  List.concat_map (fun b -> Sbt_attest.Log.open_batch ~key:egress_key b) r.Runtime.audit

let test_real_run_verifies () =
  List.iter
    (fun (bench : B.t) ->
      let r, _ = run_pipeline bench in
      let report = V.verify r.Runtime.verifier_spec (records_of_run r) in
      if not (V.ok report) then
        Alcotest.failf "%s: %s" bench.B.name (Format.asprintf "%a" V.pp_report report);
      Alcotest.(check bool)
        (bench.B.name ^ " verified windows")
        true
        (report.V.windows_verified > 0))
    [
      B.win_sum ~windows:2 ~events_per_window:2_000 ~batch_events:500 ();
      B.topk ~windows:2 ~events_per_window:2_000 ~batch_events:500 ();
      B.distinct ~windows:2 ~events_per_window:2_000 ~batch_events:500 ();
      B.join ~windows:2 ~events_per_window:2_000 ~batch_events:500 ();
      B.filter ~windows:2 ~events_per_window:2_000 ~batch_events:500 ();
      B.power ~windows:2 ~events_per_window:2_000 ~batch_events:500 ();
    ]

let test_tampered_log_rejected () =
  let bench = B.topk ~windows:2 ~events_per_window:2_000 ~batch_events:500 () in
  let r, _ = run_pipeline bench in
  let records = records_of_run r in
  (* Drop one execution record: the verifier must notice the hole. *)
  let dropped =
    let seen = ref false in
    List.filter
      (function
        | Sbt_attest.Record.Execution _ when not !seen ->
            seen := true;
            false
        | _ -> true)
      records
  in
  let report = V.verify r.Runtime.verifier_spec dropped in
  Alcotest.(check bool) "dropped record detected" false (V.ok report)

let test_misdeclared_pipeline_rejected () =
  (* Verifier expects a different pipeline than the one executed. *)
  let bench = B.distinct ~windows:2 ~events_per_window:2_000 ~batch_events:500 () in
  let r, _ = run_pipeline bench in
  let wrong_spec =
    Pipeline.verifier_spec (Pipeline.group_topk ()) (* declared TopK, ran Distinct *)
  in
  let report = V.verify wrong_spec (records_of_run r) in
  Alcotest.(check bool) "mismatch detected" false (V.ok report)

(* --- runner ------------------------------------------------------------------------ *)

let test_runner_scaling_and_verification () =
  let bench = B.win_sum ~windows:3 ~events_per_window:10_000 ~batch_events:2_000 () in
  let o =
    Runner.run ~cores_list:[ 1; 2; 4; 8 ] ~target_delay_ms:bench.B.target_delay_ms
      (Runtime.Config.make ()) bench.B.pipeline (B.frames bench)
  in
  Alcotest.(check bool) "verified" true o.Runner.verified;
  let rates = List.map (fun p -> p.Runner.events_per_sec) o.Runner.points in
  List.iter (fun r -> Alcotest.(check bool) "positive" true (r > 0.0)) rates;
  (match rates with
  | [ c1; _; _; c8 ] ->
      Alcotest.(check bool)
        (Printf.sprintf "8c (%.0f) > 2x 1c (%.0f)" c8 c1)
        true (c8 > 2.0 *. c1)
  | _ -> Alcotest.fail "expected four points");
  Alcotest.(check bool) "audit produced" true (o.Runner.audit_records > 0);
  (* Per-egress flushes keep batches small here, so only require net
     savings; the full-ratio claims are exercised in test_attest and the
     Figure 12 bench at realistic volumes. *)
  Alcotest.(check bool) "compression effective" true
    (o.Runner.audit_compressed_bytes < o.Runner.audit_raw_bytes)

(* Host-timed rates vary with the host's load, so each side keeps the
   cheapest of five recordings and insecure may read up to 5% below
   clear-ingress.  Under the deterministic cost model the order is
   exact: insecure does strictly less per batch, so it is strictly
   faster. *)
let test_runner_insecure_faster_than_full () =
  let rate ?deterministic ~repeats version =
    let bench = B.filter ~windows:2 ~events_per_window:10_000 ~batch_events:2_000 () in
    let o =
      Runner.run ~cores_list:[ 8 ] ~target_delay_ms:50.0 ~repeats
        (Runtime.Config.make ~version ?deterministic ())
        bench.B.pipeline (B.frames bench)
    in
    (List.hd o.Runner.points).Runner.events_per_sec
  in
  let full = rate ~repeats:5 D.Clear_ingress and insecure = rate ~repeats:5 D.Insecure in
  Alcotest.(check bool)
    (Printf.sprintf "insecure (%.0f) >= clear-ingress (%.0f)" insecure full)
    true
    (insecure >= full *. 0.95);
  let full = rate ~deterministic:true ~repeats:1 D.Clear_ingress
  and insecure = rate ~deterministic:true ~repeats:1 D.Insecure in
  Alcotest.(check bool)
    (Printf.sprintf "deterministic: insecure (%.0f) > clear-ingress (%.0f)" insecure full)
    true (insecure > full)

(* Words the engine allocates per event (minor + major - promoted) over
   a deterministic run, with the frames made beforehand.  The kernels
   move records without allocating, so one boxed int32 per record in the
   radix scatter adds 6 words per power event (3 per pass, two passes).
   Here they read 0.37 (power), 1.23 (join) and 39.6 (fps) on OCaml
   5.1.1, and 0.47, 1.53 and 39.6 in a fresh process, whose heap
   promotes differently; each gate adds a margin for other compilers. *)
let test_engine_allocation_per_event () =
  let cfg = Runtime.Config.make ~version:D.Clear_ingress ~deterministic:true () in
  List.iter
    (fun (name, (b : B.t), gate) ->
      let frames = B.frames b in
      let events = Sbt_workloads.Datagen.total_events b.B.spec in
      Gc.full_major ();
      let minor0, promoted0, major0 = Gc.counters () in
      ignore (Sys.opaque_identity (Runtime.run cfg b.B.pipeline frames));
      let minor1, promoted1, major1 = Gc.counters () in
      let words =
        (minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0))
        /. float_of_int events
      in
      if words > gate then Alcotest.failf "%s: %.2f words per event (at most %.1f)" name words gate)
    [
      ("power", B.power ~windows:4 ~events_per_window:60_000 ~batch_events:20_000 (), 2.0);
      ("join", B.join ~windows:4 ~events_per_window:30_000 ~batch_events:15_000 (), 4.0);
      ("fps", B.fps ~windows:4 ~events_per_window:8_000 ~batch_events:64 (), 48.0);
    ]

(* Runner records once on [cfg.cores], whatever core counts it then
   rate-searches: the recording cores fix the schedule, hence every audit
   timestamp, so its sealed results and audit equal a plain run's. *)
let test_runner_records_on_config_cores () =
  let bench = B.win_sum ~windows:2 ~events_per_window:2_000 ~batch_events:500 () in
  let frames = B.frames bench in
  let cfg = Runtime.Config.make ~cores:4 ~deterministic:true () in
  let plain = Runtime.run cfg bench.B.pipeline frames in
  List.iter
    (fun cores_list ->
      let r = (Runner.run ~cores_list cfg bench.B.pipeline frames).Runner.run in
      let what = String.concat "," (List.map string_of_int cores_list) in
      Alcotest.(check bool) ("results, cores_list " ^ what) true
        (r.Runtime.results = plain.Runtime.results);
      Alcotest.(check bool) ("audit, cores_list " ^ what) true
        (r.Runtime.audit = plain.Runtime.audit))
    [ [ 4 ]; [ 2; 8 ] ]

(* Every recording on one config shares its platform (the repeats of one
   call, or successive calls); each reports its own switch and copy
   counts, not the sum over all recordings so far. *)
let test_runner_recordings_count_alone () =
  let bench = B.topk ~windows:2 ~events_per_window:2_000 ~batch_events:500 () in
  let frames = B.frames bench in
  let cfg = Runtime.Config.make ~version:D.Clear_ingress ~deterministic:true () in
  let stats () =
    (Runner.run ~cores_list:[ 8 ] cfg bench.B.pipeline frames).Runner.run.Runtime.dp_stats
  in
  let first = stats () in
  let second = stats () in
  Alcotest.(check bool) "some switches" true (first.D.switch_pairs > 0);
  Alcotest.(check int) "switch pairs" first.D.switch_pairs second.D.switch_pairs;
  Alcotest.(check (float 1e-6)) "modeled switch ns" first.D.modeled_switch_ns
    second.D.modeled_switch_ns

let test_no_leaked_refs_after_run () =
  let bench = B.distinct ~windows:2 ~events_per_window:3_000 ~batch_events:1_000 () in
  let r, _ = run_pipeline bench in
  Alcotest.(check int) "all refs retired" 0 r.Runtime.live_refs_after

(* --- resilience under injected faults --------------------------------------------- *)

module Fault = Sbt_fault.Fault
module Lossy = Sbt_net.Lossy
module R = Sbt_attest.Record

let resilience_bench () = B.win_sum ~windows:3 ~events_per_window:6_000 ~batch_events:500 ()

(* Authenticated frames through a lossy link into a faulting engine. *)
let faulty_run ?(rate = 0.12) ?(seed = 21L) () =
  let bench = resilience_bench () in
  let spec = { bench.B.spec with Sbt_workloads.Datagen.authenticated = true } in
  let plan = Fault.uniform ~seed ~rate () in
  let frames, link = Lossy.apply plan (Sbt_workloads.Datagen.frames spec) in
  let cfg = Runtime.Config.make ~cores:8 ~fault_plan:plan () in
  (Runtime.run cfg bench.B.pipeline frames, link)

(* Gap identity without the host-time-dependent [ts]. *)
let gap_tuples records =
  List.filter_map
    (function
      | R.Gap { stream; seq; events; windows; reason; _ } ->
          Some (stream, seq, events, windows, R.gap_reason_tag reason)
      | _ -> None)
    records
  |> List.sort compare

let opened_results (r : Runtime.run_result) =
  List.map (fun (w, sealed) -> (w, D.open_result ~egress_key sealed)) r.Runtime.results
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let test_resilience_three_regimes () =
  (* Regime 1 - clean: no faults, no gaps, verifies. *)
  let bench = resilience_bench () in
  let clean, _ = run_pipeline bench in
  let clean_report = V.verify clean.Runtime.verifier_spec (records_of_run clean) in
  Alcotest.(check bool) "clean verifies" true (V.ok clean_report);
  Alcotest.(check int) "clean has no gaps" 0 (Runtime.Loss.gaps_declared clean.Runtime.loss);
  Alcotest.(check int) "clean report agrees" 0 clean_report.V.declared_gaps;
  (* Regime 2 - degraded: faults happen, losses are declared, still ok. *)
  let faulty, link = faulty_run () in
  Alcotest.(check bool) "link did damage" true (link.Lossy.dropped + link.Lossy.corrupted > 0);
  Alcotest.(check bool) "gaps declared" true ((Runtime.Loss.gaps_declared faulty.Runtime.loss) > 0);
  Alcotest.(check bool) "batches dropped" true ((Runtime.Loss.batches_dropped faulty.Runtime.loss) > 0);
  let records = records_of_run faulty in
  let report = V.verify faulty.Runtime.verifier_spec records in
  if not (V.ok report) then
    Alcotest.failf "declared loss must verify as degradation: %s"
      (Format.asprintf "%a" V.pp_report report);
  Alcotest.(check int) "report sees the gaps" (Runtime.Loss.gaps_declared faulty.Runtime.loss) report.V.declared_gaps;
  Alcotest.(check bool) "loss reported" true
    (report.V.lost_batches > 0 && report.V.loss_fraction > 0.0);
  (* Regime 3 - tampered: stripping the gap declarations from the same log
     turns tolerated degradation into violations. *)
  let stripped = List.filter (function R.Gap _ -> false | _ -> true) records in
  let tampered = V.verify faulty.Runtime.verifier_spec stripped in
  Alcotest.(check bool) "stripped log rejected" false (V.ok tampered);
  Alcotest.(check bool) "undeclared loss flagged" true
    (List.exists (function V.Undeclared_loss _ -> true | _ -> false) tampered.V.violations)

let test_resilience_deterministic () =
  (* Same plan, same seed: identical losses, gaps, results and verdict,
     independent of host timing. *)
  let r1, l1 = faulty_run () in
  let r2, l2 = faulty_run () in
  Alcotest.(check bool) "same link damage" true (l1 = l2);
  Alcotest.(check int) "same gap count" (Runtime.Loss.gaps_declared r1.Runtime.loss) (Runtime.Loss.gaps_declared r2.Runtime.loss);
  Alcotest.(check int) "same drops" (Runtime.Loss.batches_dropped r1.Runtime.loss) (Runtime.Loss.batches_dropped r2.Runtime.loss);
  Alcotest.(check int) "same events lost" (Runtime.Loss.events_dropped r1.Runtime.loss) (Runtime.Loss.events_dropped r2.Runtime.loss);
  Alcotest.(check bool) "same gaps" true
    (gap_tuples (records_of_run r1) = gap_tuples (records_of_run r2));
  Alcotest.(check bool) "same results" true (opened_results r1 = opened_results r2);
  let rep1 = V.verify r1.Runtime.verifier_spec (records_of_run r1) in
  let rep2 = V.verify r2.Runtime.verifier_spec (records_of_run r2) in
  Alcotest.(check bool) "same verdict" true
    ((V.ok rep1, rep1.V.declared_gaps, rep1.V.lost_batches, rep1.V.degraded_windows)
    = (V.ok rep2, rep2.V.declared_gaps, rep2.V.lost_batches, rep2.V.degraded_windows))

let test_resilience_zero_cost_opt_in () =
  (* A rate-0 plan is [none]: no hook installed, no gaps, results identical
     to a run that never heard of fault injection. *)
  Alcotest.(check bool) "rate 0 is none" true (Fault.is_none (Fault.uniform ~rate:0.0 ()));
  let bench = resilience_bench () in
  let plain, _ = run_pipeline bench in
  let r, link = faulty_run ~rate:0.0 () in
  Alcotest.(check int) "nothing dropped" 0 link.Lossy.dropped;
  Alcotest.(check int) "no gaps" 0 (Runtime.Loss.gaps_declared r.Runtime.loss);
  Alcotest.(check int) "no drops" 0 (Runtime.Loss.batches_dropped r.Runtime.loss);
  Alcotest.(check int) "no sheds" 0 r.Runtime.dp_stats.D.sheds;
  Alcotest.(check int) "no smc refusals" 0 r.Runtime.dp_stats.D.smc_busy_rejections;
  Alcotest.(check bool) "same results as the plain path" true
    (opened_results plain = opened_results r)

let test_smc_retry_within_budget () =
  (* Bursts no longer than the retry budget: every batch eventually lands,
     nothing is dropped, but the refusals are visible in the stats. *)
  let bench = resilience_bench () in
  let plan =
    { Fault.none with Fault.smc = { Fault.quiet with Fault.fail_p = 0.5; max_burst = 2 } }
  in
  Alcotest.(check bool) "budget covers bursts" true (plan.Fault.retry_budget >= 2);
  let cfg = Runtime.Config.make ~cores:8 ~fault_plan:plan () in
  let r = Runtime.run cfg bench.B.pipeline (B.frames bench) in
  Alcotest.(check bool) "refusals injected" true (r.Runtime.dp_stats.D.smc_busy_rejections > 0);
  Alcotest.(check int) "no batch lost" 0 (Runtime.Loss.batches_dropped r.Runtime.loss);
  Alcotest.(check int) "no gaps needed" 0 (Runtime.Loss.gaps_declared r.Runtime.loss);
  let report = V.verify r.Runtime.verifier_spec (records_of_run r) in
  Alcotest.(check bool) "verifies clean" true (V.ok report);
  (* And the retried run computes the same answers.  (Fresh bench: the
     generators carry mutable state, so frames must come from their own
     instance to be reproducible.) *)
  let plain, _ = run_pipeline (resilience_bench ()) in
  Alcotest.(check bool) "same results" true (opened_results plain = opened_results r)

let test_smc_budget_exhausted_degrades () =
  (* Bursts longer than the budget: the batch is dropped and vouched for. *)
  let bench = resilience_bench () in
  let plan =
    {
      Fault.none with
      Fault.retry_budget = 1;
      smc = { Fault.quiet with Fault.fail_p = 0.4; max_burst = 4 };
    }
  in
  let cfg = Runtime.Config.make ~cores:8 ~fault_plan:plan () in
  let r = Runtime.run cfg bench.B.pipeline (B.frames bench) in
  Alcotest.(check bool) "some batches dropped" true ((Runtime.Loss.batches_dropped r.Runtime.loss) > 0);
  let gaps = gap_tuples (records_of_run r) in
  Alcotest.(check int) "every drop declared" (Runtime.Loss.batches_dropped r.Runtime.loss) (List.length gaps);
  Alcotest.(check bool) "smc reason recorded" true
    (List.exists
       (fun (_, _, _, _, tag) -> R.gap_reason_of_tag tag = R.Smc_unavailable)
       gaps);
  let report = V.verify r.Runtime.verifier_spec (records_of_run r) in
  if not (V.ok report) then
    Alcotest.failf "declared SMC loss must degrade: %s" (Format.asprintf "%a" V.pp_report report)

let test_pool_pressure_sheds_and_degrades () =
  (* Forced pool sheds: ingest is refused under pool pressure instead of raising
     Out_of_secure_memory, the batch is declared lost, the run verifies. *)
  let bench = resilience_bench () in
  let plan = { Fault.none with Fault.pool = { Fault.quiet with Fault.fail_p = 0.25 } } in
  let cfg = Runtime.Config.make ~cores:8 ~fault_plan:plan () in
  let r = Runtime.run cfg bench.B.pipeline (B.frames bench) in
  Alcotest.(check bool) "sheds happened" true (r.Runtime.dp_stats.D.sheds > 0);
  Alcotest.(check bool) "drops recorded" true ((Runtime.Loss.batches_dropped r.Runtime.loss) > 0);
  Alcotest.(check bool) "pool reason recorded" true
    (List.exists
       (fun (_, _, _, _, tag) -> R.gap_reason_of_tag tag = R.Pool_pressure)
       (gap_tuples (records_of_run r)));
  let report = V.verify r.Runtime.verifier_spec (records_of_run r) in
  Alcotest.(check bool) "verifies as degradation" true (V.ok report)

let test_dataplane_exhaustion_sheds_not_crashes () =
  (* Real exhaustion (no injection): a payload larger than the whole pool
     must be refused under pool pressure, never crash the TEE. *)
  let dp = mk_dp ~secure_mb:1 () in
  let rows = List.init 120_000 (fun i -> [ Int32.of_int i; 1l; 0l ]) in
  (match
     D.call dp
       (D.R_ingest_events
          { payload = payload_of rows; encrypted = false; stream = 0; seq = 0; mac = Bytes.empty;
            windowing = None })
   with
  | D.Refused { reason = D.Pool_pressure; stalled_ns } ->
      Alcotest.(check bool) "stall modeled" true (stalled_ns > 0.0)
  | D.Refused { reason = D.Corrupt_ingress; _ } -> Alcotest.fail "refused as corrupt"
  | D.Ingested _ -> Alcotest.fail "expected a pool-pressure refusal");
  Alcotest.(check int) "shed counted" 1 (D.stats dp).D.sheds;
  (* The pool is untouched: a reasonable batch still ingests fine. *)
  match
    D.call dp
      (D.R_ingest_events
         { payload = payload_of [ [ 1l; 2l; 0l ] ]; encrypted = false; stream = 0; seq = 1;
           mac = Bytes.empty; windowing = None })
  with
  | D.Ingested _ -> ()
  | D.Refused _ -> Alcotest.fail "pool unusable after shed"

let test_corrupt_frame_rejected_by_dataplane () =
  (* A MAC that does not match the payload: rejected inside the TEE. *)
  let dp = mk_dp () in
  let payload = payload_of [ [ 1l; 2l; 0l ]; [ 3l; 4l; 1l ] ] in
  let mac = Frame.mac_payload ~key:ingress_key ~stream:0 ~seq:0 ~events:2 ~encrypted:false payload in
  let bad = Bytes.copy payload in
  Bytes.set bad 0 (Char.chr (Char.code (Bytes.get bad 0) lxor 0x40));
  (match
     D.call dp (D.R_ingest_events { payload = bad; encrypted = false; stream = 0; seq = 0; mac;
                                    windowing = None })
   with
  | D.Refused { reason = D.Corrupt_ingress; _ } -> ()
  | D.Refused { reason = D.Pool_pressure; _ } -> Alcotest.fail "refused as pool pressure"
  | D.Ingested _ -> Alcotest.fail "expected a corrupt-ingress refusal");
  (* The genuine payload with the same MAC is accepted. *)
  match D.call dp (D.R_ingest_events { payload; encrypted = false; stream = 0; seq = 0; mac;
                                       windowing = None }) with
  | D.Ingested _ -> ()
  | D.Refused _ -> Alcotest.fail "genuine frame refused"

(* --- one world switch per batch ----------------------------------------------- *)

(* Ingest, Segment and the fused batch chain run in one trusted call and
   one DES task per frame.  Each window adds three switch pairs (its
   watermark, its plan, its egress) and three tasks (watermark, its
   arrival marker, the close); init and finalize add two pairs. *)
let test_batch_call_counts () =
  let windows = 2 in
  let bench = B.fps ~windows ~events_per_window:2_000 ~batch_events:250 () in
  let r, frames = run_pipeline ~version:D.Full bench in
  let batches = List.length (List.filter (function Frame.Events _ -> true | _ -> false) frames) in
  Alcotest.(check int) "switch pairs" (batches + (3 * windows) + 2)
    r.Runtime.dp_stats.D.switch_pairs;
  Alcotest.(check int) "des tasks" (batches + (3 * windows)) r.Runtime.tasks_executed;
  let records = Array.of_list (records_of_run r) in
  let count f = Array.fold_left (fun n x -> if f x then n + 1 else n) 0 records in
  let windowing = count (function R.Windowing _ -> true | _ -> false) in
  Alcotest.(check int) "one Ingress per batch" batches
    (count (function R.Ingress _ -> true | _ -> false));
  Alcotest.(check bool) "every batch segmented" true (windowing >= batches);
  Alcotest.(check int) "one Fused per open-window segment" windowing
    (count (function R.Fused _ -> true | _ -> false));
  (* Per-batch order: each Ingress is followed by its segment's Windowing
     record and then by the Fused record that consumed that segment. *)
  Array.iteri
    (fun i rc ->
      match rc with
      | R.Ingress { uarray; _ } -> (
          match (records.(i + 1), records.(i + 2)) with
          | R.Windowing { data_in; data_out; _ }, R.Fused { inputs; _ }
            when data_in = uarray && inputs = [ data_out ] ->
              ()
          | _ -> Alcotest.failf "batch %d: Ingress not followed by its Windowing and Fused" uarray)
      | _ -> ())
    records;
  let report = V.verify r.Runtime.verifier_spec (Array.to_list records) in
  Alcotest.(check bool) "verifies" true (V.ok report)

(* A refused ingest inside the batch call still becomes a declared gap
   with its reason, and the run verifies as degradation, as it did when
   ingest was its own call. *)
let fps_bench () = B.fps ~windows:3 ~events_per_window:2_000 ~batch_events:250 ()

let refused_run ?(fault_plan = Fault.none) frames =
  let cfg = Runtime.Config.make ~cores:8 ~fault_plan () in
  let r = Runtime.run cfg (fps_bench ()).B.pipeline frames in
  let records = records_of_run r in
  let report = V.verify r.Runtime.verifier_spec records in
  if not (V.ok report) then
    Alcotest.failf "declared loss must verify as degradation: %s"
      (Format.asprintf "%a" V.pp_report report);
  let loss = r.Runtime.loss in
  Alcotest.(check bool) "batches dropped" true (Runtime.Loss.batches_dropped loss > 0);
  Alcotest.(check int) "every drop declared" (Runtime.Loss.batches_dropped loss)
    (List.length (gap_tuples records));
  Alcotest.(check int) "report sees the gaps" (Runtime.Loss.gaps_declared loss)
    report.V.declared_gaps;
  Alcotest.(check int) "report sees the lost batches" (Runtime.Loss.batches_dropped loss)
    report.V.lost_batches;
  List.map (fun (_, _, _, _, tag) -> R.gap_reason_of_tag tag) (gap_tuples records)

let test_batch_call_corrupt_frame () =
  let bench = fps_bench () in
  let spec = { bench.B.spec with Sbt_workloads.Datagen.authenticated = true } in
  let frames = Sbt_workloads.Datagen.frames spec in
  (* Flip one payload bit of the third data frame; its MAC stays. *)
  let n = ref 0 in
  let frames =
    List.map
      (function
        | Frame.Events ({ payload; _ } as e) when (incr n; !n = 3) ->
            let p = Bytes.copy payload in
            Bytes.set p 5 (Char.chr (Char.code (Bytes.get p 5) lxor 0x10));
            Frame.Events { e with payload = p }
        | f -> f)
      frames
  in
  let reasons = refused_run frames in
  Alcotest.(check bool) "one corrupt-ingress gap" true (reasons = [ R.Corrupt_ingress ])

let test_batch_call_shed () =
  let plan = { Fault.none with Fault.pool = { Fault.quiet with Fault.fail_p = 0.25 } } in
  let reasons = refused_run ~fault_plan:plan (B.frames (fps_bench ())) in
  Alcotest.(check bool) "pool-pressure gaps only" true
    (List.for_all (fun r -> r = R.Pool_pressure) reasons)

let test_batch_call_smc_busy () =
  let plan =
    {
      Fault.none with
      Fault.retry_budget = 1;
      smc = { Fault.quiet with Fault.fail_p = 0.4; max_burst = 4 };
    }
  in
  let reasons = refused_run ~fault_plan:plan (B.frames (fps_bench ())) in
  Alcotest.(check bool) "smc-unavailable gaps only" true
    (List.for_all (fun r -> r = R.Smc_unavailable) reasons)

(* A stage the TEE rejects once the frame is in is not a refused ingest:
   it escapes the run instead of turning into a gap. *)
let test_batch_call_stage_rejection_escapes () =
  let bench = fps_bench () in
  let pipe = { bench.B.pipeline with Pipeline.batch_ops = [ Pipeline.B_project [| 0; 7 |] ] } in
  match Runtime.run (Runtime.Config.make ~cores:8 ()) pipe (B.frames bench) with
  | exception D.Rejected _ -> ()
  | _ -> Alcotest.fail "stage rejection became a gap"

let test_control_backpressure () =
  (* Backpressure exercised through the whole control plane, not just the
     dataplane unit: under the fixed stall the run completes, stalls are
     recorded, nothing is dropped, and the answers are unchanged. *)
  let mk () = B.win_sum ~windows:2 ~events_per_window:8_000 ~batch_events:1_000 () in
  let bench = mk () in
  let cfg =
    Runtime.Config.make ~cores:8 ~secure_mb:1 ~backpressure_threshold:0.05 ()
  in
  let r = Runtime.run cfg bench.B.pipeline (B.frames bench) in
  Alcotest.(check bool) "stalls recorded" true (r.Runtime.dp_stats.D.backpressure_stalls > 0);
  Alcotest.(check int) "nothing dropped" 0 (Runtime.Loss.batches_dropped r.Runtime.loss);
  let plain, _ = run_pipeline (mk ()) in
  Alcotest.(check bool) "same results under pressure" true
    (opened_results plain = opened_results r);
  let report = V.verify r.Runtime.verifier_spec (records_of_run r) in
  Alcotest.(check bool) "verifies" true (V.ok report)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "core"
    [
      ( "opaque",
        [
          Alcotest.test_case "register/resolve/remove" `Quick test_opaque_register_resolve;
          Alcotest.test_case "rejects fabricated" `Quick test_opaque_rejects_fabricated;
          q prop_opaque_fabricated_never_resolves;
        ] );
      ( "dataplane",
        [
          Alcotest.test_case "ingest and sort" `Quick test_dataplane_ingest_and_sort;
          Alcotest.test_case "rejects fabricated ref" `Quick test_dataplane_rejects_fabricated_ref;
          Alcotest.test_case "rejects wrong arity" `Quick test_dataplane_rejects_wrong_arity;
          Alcotest.test_case "retire semantics" `Quick test_dataplane_retire_semantics;
          Alcotest.test_case "encrypted ingest" `Quick test_dataplane_encrypted_ingest;
          Alcotest.test_case "encrypted frame forgeries refused" `Quick
            test_encrypted_frame_forgeries_refused;
          Alcotest.test_case "result tamper detected" `Quick test_dataplane_result_tamper_detected;
          Alcotest.test_case "result forgeries rejected" `Quick test_result_forgeries_rejected;
          Alcotest.test_case "version accounting" `Quick test_dataplane_version_accounting;
          Alcotest.test_case "backpressure" `Quick test_dataplane_backpressure;
          Alcotest.test_case "debug entry" `Quick test_dataplane_debug_entry;
        ] );
      ( "pipelines",
        [
          Alcotest.test_case "winsum reference" `Quick test_winsum_matches_reference;
          Alcotest.test_case "distinct reference" `Quick test_distinct_matches_reference;
          Alcotest.test_case "filter reference" `Quick test_filter_matches_reference;
          Alcotest.test_case "topk reference" `Quick test_topk_matches_reference;
          Alcotest.test_case "join reference" `Quick test_join_matches_reference;
          Alcotest.test_case "power reference" `Quick test_power_matches_reference;
          Alcotest.test_case "encrypted source same results" `Quick
            test_encrypted_source_same_results;
        ] );
      ( "attestation-e2e",
        [
          Alcotest.test_case "all benchmarks verify" `Slow test_real_run_verifies;
          Alcotest.test_case "tampered log rejected" `Quick test_tampered_log_rejected;
          Alcotest.test_case "misdeclared pipeline rejected" `Quick
            test_misdeclared_pipeline_rejected;
        ] );
      ( "runner",
        [
          Alcotest.test_case "scaling and verification" `Slow test_runner_scaling_and_verification;
          Alcotest.test_case "insecure >= clear-ingress" `Slow test_runner_insecure_faster_than_full;
          Alcotest.test_case "records on cfg.cores" `Quick test_runner_records_on_config_cores;
          Alcotest.test_case "recordings count alone" `Quick test_runner_recordings_count_alone;
          Alcotest.test_case "no leaked refs" `Quick test_no_leaked_refs_after_run;
          Alcotest.test_case "engine allocation per event" `Quick test_engine_allocation_per_event;
        ] );
      ( "resilience",
        [
          Alcotest.test_case "three regimes" `Quick test_resilience_three_regimes;
          Alcotest.test_case "deterministic replay" `Quick test_resilience_deterministic;
          Alcotest.test_case "zero-cost opt-in" `Quick test_resilience_zero_cost_opt_in;
          Alcotest.test_case "smc retry within budget" `Quick test_smc_retry_within_budget;
          Alcotest.test_case "smc budget exhausted" `Quick test_smc_budget_exhausted_degrades;
          Alcotest.test_case "pool pressure degrades" `Quick test_pool_pressure_sheds_and_degrades;
          Alcotest.test_case "exhaustion sheds not crashes" `Quick
            test_dataplane_exhaustion_sheds_not_crashes;
          Alcotest.test_case "corrupt frame rejected" `Quick test_corrupt_frame_rejected_by_dataplane;
          Alcotest.test_case "control backpressure" `Quick test_control_backpressure;
        ] );
      ( "batch call",
        [
          Alcotest.test_case "switches, tasks and audit order" `Quick test_batch_call_counts;
          Alcotest.test_case "corrupt frame declared" `Quick test_batch_call_corrupt_frame;
          Alcotest.test_case "shed declared" `Quick test_batch_call_shed;
          Alcotest.test_case "smc busy declared" `Quick test_batch_call_smc_busy;
          Alcotest.test_case "stage rejection escapes" `Quick
            test_batch_call_stage_rejection_escapes;
        ] );
    ]
