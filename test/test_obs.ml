(* Tests for the observability layer: registry semantics, span nesting,
   Chrome trace export, bench JSON output — and the load-bearing
   invariant that instrumentation is observer-effect-free: with tracing
   on or off, sealed results, audit bytes and verifier verdicts are
   byte-identical, because spans are keyed to virtual time and modeled
   costs, never host wall-clock. *)

module Metrics = Sbt_obs.Metrics
module Tracer = Sbt_obs.Tracer
module Json = Sbt_obs.Json
module Chrome = Sbt_obs.Chrome_trace
module Bench_json = Sbt_obs.Bench_json
module B = Sbt_workloads.Benchmarks
module Datagen = Sbt_workloads.Datagen
module Runtime = Sbt_core.Runtime
module Pipeline = Sbt_core.Pipeline
module D = Sbt_core.Dataplane
module Fault = Sbt_fault.Fault
module Lossy = Sbt_net.Lossy
module Verifier = Sbt_attest.Verifier

let egress_key = Bytes.of_string "sbt-egress-key16"

(* --- metrics: counters ------------------------------------------------------ *)

let test_counter_monotonic () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg "reqs" in
  Alcotest.(check int) "starts at 0" 0 (Metrics.counter_value c);
  Metrics.incr c;
  Metrics.add c 41;
  Alcotest.(check int) "42" 42 (Metrics.counter_value c);
  Alcotest.check_raises "negative delta refused"
    (Invalid_argument "Metrics.add: counters are monotonic (negative delta)")
    (fun () -> Metrics.add c (-1));
  Alcotest.(check int) "unchanged after refusal" 42 (Metrics.counter_value c);
  (* Get-or-create: same name, same counter. *)
  Metrics.incr (Metrics.counter reg "reqs");
  Alcotest.(check int) "shared by name" 43 (Metrics.counter_value c);
  Alcotest.(check int) "find_counter" 43 (Metrics.find_counter reg "reqs")

let test_kind_collision () =
  let reg = Metrics.create () in
  ignore (Metrics.counter reg "x");
  Alcotest.(check bool) "gauge on counter name raises" true
    (try
       ignore (Metrics.gauge reg "x");
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "histogram on counter name raises" true
    (try
       ignore (Metrics.histogram reg "x");
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad name raises" true
    (try
       ignore (Metrics.counter reg "has space");
       false
     with Invalid_argument _ -> true)

(* --- metrics: gauges -------------------------------------------------------- *)

let test_gauge_high_water () =
  let reg = Metrics.create () in
  let g = Metrics.gauge reg "pool" in
  Metrics.set_gauge g 10.0;
  Metrics.set_gauge g 100.0;
  Metrics.set_gauge g 25.0;
  Alcotest.(check (float 0.0)) "current" 25.0 (Metrics.gauge_value g);
  Alcotest.(check (float 0.0)) "high water" 100.0 (Metrics.gauge_high_water g);
  Alcotest.(check (float 0.0)) "find_gauge_high_water" 100.0
    (Metrics.find_gauge_high_water reg "pool")

(* --- metrics: histograms ---------------------------------------------------- *)

let test_histogram_buckets () =
  let reg = Metrics.create () in
  let h = Metrics.histogram ~bounds:[| 10.0; 20.0; 30.0 |] reg "lat" in
  (* Inclusive upper bounds: 10 lands in the first bucket, 10.5 in the
     second, 35 in the overflow. *)
  Metrics.observe h 10.0;
  Metrics.observe h 10.5;
  Metrics.observe h 35.0;
  Alcotest.(check (array int)) "bucket placement" [| 1; 1; 0; 1 |] (Metrics.bucket_counts h);
  Alcotest.(check int) "count" 3 (Metrics.observations h);
  Alcotest.(check (float 1e-9)) "sum" 55.5 (Metrics.sum h);
  Alcotest.(check bool) "non-increasing bounds refused" true
    (try
       ignore (Metrics.histogram ~bounds:[| 5.0; 5.0 |] reg "bad");
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "re-register with different bounds refused" true
    (try
       ignore (Metrics.histogram ~bounds:[| 1.0 |] reg "lat");
       false
     with Invalid_argument _ -> true)

let test_histogram_percentiles () =
  let reg = Metrics.create () in
  let h = Metrics.histogram ~bounds:[| 10.0; 20.0; 30.0 |] reg "lat" in
  Alcotest.(check bool) "empty -> nan" true (Float.is_nan (Metrics.percentile h 50.0));
  (* 50 in (..10], 45 in (10..20], 5 above 30: p50 ends in the first
     bucket, p95 exactly at the 95th observation (second bucket), p99 in
     the overflow. *)
  for _ = 1 to 50 do Metrics.observe h 5.0 done;
  for _ = 1 to 45 do Metrics.observe h 15.0 done;
  for _ = 1 to 5 do Metrics.observe h 35.0 done;
  Alcotest.(check (float 0.0)) "p50" 10.0 (Metrics.percentile h 50.0);
  Alcotest.(check (float 0.0)) "p95" 20.0 (Metrics.percentile h 95.0);
  Alcotest.(check bool) "p99 overflow" true (Metrics.percentile h 99.0 = infinity)

let test_snapshot_roundtrip () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg "a.count" in
  let g = Metrics.gauge reg "b.gauge" in
  let h = Metrics.histogram reg "c.hist" in
  Metrics.add c 7;
  Metrics.set_gauge g 3.5;
  Metrics.set_gauge g 1.25;
  Metrics.observe h 1500.0;
  Metrics.observe h 2.5e9;
  let snap = Metrics.snapshot reg in
  (* Registration order is preserved. *)
  let names =
    List.map
      (function
        | Metrics.S_counter { name; _ } -> name
        | Metrics.S_gauge { name; _ } -> name
        | Metrics.S_histogram { name; _ } -> name)
      snap
  in
  Alcotest.(check (list string)) "order" [ "a.count"; "b.gauge"; "c.hist" ] names;
  let decoded = Metrics.decode_snapshot (Metrics.encode_snapshot reg) in
  Alcotest.(check bool) "decode inverts encode" true (decoded = snap);
  Alcotest.check_raises "malformed payload refused"
    (Invalid_argument "Metrics.decode_snapshot: malformed line \"Z what\"")
    (fun () -> ignore (Metrics.decode_snapshot (Bytes.of_string "Z what")))

(* --- tracer: span nesting --------------------------------------------------- *)

let test_span_nesting () =
  let tr = Tracer.create () in
  let outer = Tracer.open_span tr ~pid:0 ~tid:0 ~cat:"t" ~name:"outer" ~ts_ns:100.0 in
  let inner = Tracer.open_span tr ~pid:0 ~tid:0 ~cat:"t" ~name:"inner" ~ts_ns:150.0 in
  Alcotest.(check int) "depth 2" 2 (Tracer.open_depth tr ~pid:0 ~tid:0);
  Alcotest.(check bool) "closing the outer first refused" true
    (try
       Tracer.close_span tr outer ~ts_ns:200.0;
       false
     with Invalid_argument _ -> true);
  Tracer.close_span tr inner ~ts_ns:180.0;
  Tracer.close_span tr outer ~ts_ns:200.0;
  Alcotest.(check int) "depth 0" 0 (Tracer.open_depth tr ~pid:0 ~tid:0);
  Alcotest.(check bool) "double close refused" true
    (try
       Tracer.close_span tr inner ~ts_ns:300.0;
       false
     with Invalid_argument _ -> true);
  (match Tracer.events tr with
  | [
   Tracer.Complete { name = n1; dur_ns = d1; _ }; Tracer.Complete { name = n2; dur_ns = d2; _ };
  ] ->
      Alcotest.(check string) "inner emitted first" "inner" n1;
      Alcotest.(check (float 0.0)) "inner dur" 30.0 d1;
      Alcotest.(check string) "outer second" "outer" n2;
      Alcotest.(check (float 0.0)) "outer dur" 100.0 d2
  | evs -> Alcotest.failf "expected 2 completes, got %d events" (List.length evs));
  (* Separate (pid, tid) tracks nest independently. *)
  let a = Tracer.open_span tr ~pid:0 ~tid:1 ~cat:"t" ~name:"a" ~ts_ns:0.0 in
  let b = Tracer.open_span tr ~pid:1 ~tid:0 ~cat:"t" ~name:"b" ~ts_ns:0.0 in
  Tracer.close_span tr a ~ts_ns:1.0;
  Tracer.close_span tr b ~ts_ns:1.0;
  Alcotest.(check bool) "close before open refused" true
    (try
       let s = Tracer.open_span tr ~pid:0 ~tid:0 ~cat:"t" ~name:"s" ~ts_ns:10.0 in
       Tracer.close_span tr s ~ts_ns:5.0;
       false
     with Invalid_argument _ -> true)

(* --- a tiny JSON parser (well-formedness checks only) ----------------------- *)

exception Parse_error of string

let parse_json (s : string) : Json.t =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at %d" msg !pos)) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let advance () = incr pos in
  let rec skip_ws () =
    if !pos < n then
      match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> advance (); skip_ws () | _ -> ()
  in
  let expect c = if peek () = c then advance () else fail (Printf.sprintf "expected %c" c) in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word then begin
      pos := !pos + String.length word;
      v
    end
    else fail ("expected " ^ word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          (match peek () with
          | '"' -> Buffer.add_char buf '"'; advance ()
          | '\\' -> Buffer.add_char buf '\\'; advance ()
          | '/' -> Buffer.add_char buf '/'; advance ()
          | 'n' -> Buffer.add_char buf '\n'; advance ()
          | 'r' -> Buffer.add_char buf '\r'; advance ()
          | 't' -> Buffer.add_char buf '\t'; advance ()
          | 'b' -> Buffer.add_char buf '\b'; advance ()
          | 'f' -> Buffer.add_char buf '\012'; advance ()
          | 'u' ->
              advance ();
              if !pos + 4 > n then fail "bad \\u escape";
              let code = int_of_string ("0x" ^ String.sub s !pos 4) in
              pos := !pos + 4;
              if code < 0x80 then Buffer.add_char buf (Char.chr code)
              else Buffer.add_char buf '?' (* non-ASCII: presence is enough *)
          | _ -> fail "bad escape");
          go ()
      | c -> Buffer.add_char buf c; advance (); go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let num_char c =
      match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    in
    while !pos < n && num_char s.[!pos] do advance () done;
    if !pos = start then fail "expected number";
    float_of_string (String.sub s start (!pos - start))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '{' ->
        advance ();
        skip_ws ();
        if peek () = '}' then begin advance (); Json.Obj [] end
        else begin
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | ',' -> advance (); members ((k, v) :: acc)
            | '}' -> advance (); Json.Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected , or }"
          in
          members []
        end
    | '[' ->
        advance ();
        skip_ws ();
        if peek () = ']' then begin advance (); Json.List [] end
        else begin
          let rec elems acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | ',' -> advance (); elems (v :: acc)
            | ']' -> advance (); Json.List (List.rev (v :: acc))
            | _ -> fail "expected , or ]"
          in
          elems []
        end
    | '"' -> Json.Str (parse_string ())
    | 't' -> literal "true" (Json.Bool true)
    | 'f' -> literal "false" (Json.Bool false)
    | 'n' -> literal "null" Json.Null
    | _ -> Json.Num (parse_number ())
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let obj_field name = function
  | Json.Obj fields -> List.assoc_opt name fields
  | _ -> None

let test_json_writer_roundtrips () =
  let v =
    Json.Obj
      [
        ("s", Json.Str "a\"b\\c\nd\te\r\x01");
        ("n", Json.Num 1.5);
        ("i", Json.num_of_int (-42));
        ("big", Json.Num 1.23e20);
        ("nan", Json.Num Float.nan);
        ("l", Json.List [ Json.Bool true; Json.Bool false; Json.Null; Json.Obj [] ]);
      ]
  in
  match parse_json (Json.to_string v) with
  | Json.Obj fields ->
      Alcotest.(check int) "all fields" 6 (List.length fields);
      Alcotest.(check bool) "escaped string survives" true
        (List.assoc "s" fields = Json.Str "a\"b\\c\nd\te\r\x01");
      Alcotest.(check bool) "non-finite becomes null" true (List.assoc "nan" fields = Json.Null);
      Alcotest.(check bool) "int stays integral" true (List.assoc "i" fields = Json.Num (-42.0))
  | _ -> Alcotest.fail "expected object"

(* --- Chrome trace_event export ---------------------------------------------- *)

let test_chrome_trace_wellformed () =
  let tr = Tracer.create () in
  Tracer.complete tr ~pid:0 ~tid:2 ~cat:"des" ~name:"task" ~ts_ns:1500.0 ~dur_ns:500.0
    ~args:[ ("k", Tracer.Int 3) ] ();
  Tracer.instant tr ~pid:1 ~tid:0 ~cat:"smc-busy" ~name:"busy:invoke" ~ts_ns:2000.0 ();
  Tracer.counter tr ~pid:1 ~tid:0 ~name:"secure-pool" ~ts_ns:2500.0
    ~series:[ ("committed_bytes", 4096.0) ];
  let json = parse_json (Chrome.to_json tr) in
  let events =
    match obj_field "traceEvents" json with
    | Some (Json.List l) -> l
    | _ -> Alcotest.fail "traceEvents missing"
  in
  (* 2 process_name metadata events + the 3 recorded ones. *)
  Alcotest.(check int) "event count" 5 (List.length events);
  List.iter
    (fun e ->
      let ph =
        match obj_field "ph" e with
        | Some (Json.Str p) -> p
        | _ -> Alcotest.fail "event without ph"
      in
      Alcotest.(check bool) ("known ph " ^ ph) true (List.mem ph [ "X"; "i"; "C"; "M" ]);
      (match obj_field "ts" e with
      | Some (Json.Num _) -> ()
      | _ -> Alcotest.fail "event without numeric ts");
      (match obj_field "pid" e with
      | Some (Json.Num _) -> ()
      | _ -> Alcotest.fail "event without numeric pid");
      if ph = "X" then
        match obj_field "dur" e with
        | Some (Json.Num _) -> ()
        | _ -> Alcotest.fail "complete event without dur")
    events;
  (* Timestamps are microseconds. *)
  let x = List.find (fun e -> obj_field "ph" e = Some (Json.Str "X")) events in
  Alcotest.(check bool) "ns -> us" true
    (obj_field "ts" x = Some (Json.Num 1.5) && obj_field "dur" x = Some (Json.Num 0.5));
  let names =
    List.filter_map
      (fun e ->
        if obj_field "ph" e = Some (Json.Str "M") then obj_field "args" e else None)
      events
  in
  Alcotest.(check bool) "both worlds named" true
    (List.mem (Json.Obj [ ("name", Json.Str "normal-world") ]) names
    && List.mem (Json.Obj [ ("name", Json.Str "secure-world") ]) names)

(* --- bench JSON output ------------------------------------------------------- *)

let test_bench_json_append () =
  let dir = Filename.temp_file "sbt-bench" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let p1 = Bench_json.append ~dir ~section:"fig7" [ ("rate", Json.Num 1e6) ] in
  let p2 = Bench_json.append ~dir ~section:"fig7" [ ("rate", Json.Num 2e6) ] in
  Alcotest.(check string) "stable path" p1 p2;
  Alcotest.(check string) "file name" "BENCH_fig7.json" (Filename.basename p1);
  let ic = open_in p1 in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  let lines = List.rev !lines in
  Alcotest.(check int) "one line per append" 2 (List.length lines);
  List.iter
    (fun line ->
      match parse_json line with
      | Json.Obj fields ->
          Alcotest.(check bool) "section field" true
            (List.assoc_opt "section" fields = Some (Json.Str "fig7"))
      | _ -> Alcotest.fail "line is not an object")
    lines;
  Alcotest.(check bool) "non-token section refused" true
    (try
       ignore (Bench_json.append ~dir ~section:"../evil" []);
       false
     with Invalid_argument _ -> true);
  Sys.remove p1;
  Unix.rmdir dir

(* --- pipeline-level helpers -------------------------------------------------- *)

(* A platform with host_scale 0: every task cost is purely modeled, so
   the whole engine — schedules, audit timestamps, sealed bytes — is
   bit-for-bit deterministic, which is what lets these tests demand
   byte-identical outputs. *)
let det_run ?(fault_plan = Fault.none) ?tracer ?(windows = 2) ?(events_per_window = 2000)
    ?(batch_events = 500) ?frames () =
  let bench = B.win_sum ~windows ~events_per_window ~batch_events () in
  let frames = match frames with Some f -> f | None -> B.frames bench in
  let cost = { Sbt_tz.Cost_model.default with Sbt_tz.Cost_model.host_scale = 0.0 } in
  let platform = Sbt_tz.Platform.create ~cores:8 ~cost () in
  let cfg = Runtime.Config.make ~cores:4 ~platform ~fault_plan ?tracer () in
  let r = Runtime.run cfg bench.B.pipeline frames in
  (bench, r)

let verdict (bench : B.t) (r : Runtime.run_result) =
  let records =
    List.concat_map (fun b -> Sbt_attest.Log.open_batch ~key:egress_key b) r.Runtime.audit
  in
  ignore bench;
  let rep = Verifier.verify r.Runtime.verifier_spec records in
  (Verifier.ok rep, rep.Verifier.loss_fraction, List.length rep.Verifier.violations)

(* --- the observer-effect property -------------------------------------------- *)

let observable_state (r : Runtime.run_result) =
  ( r.Runtime.results,
    List.map
      (fun (b : Sbt_attest.Log.batch) ->
        (b.Sbt_attest.Log.seq, b.Sbt_attest.Log.payload, b.Sbt_attest.Log.tag))
      r.Runtime.audit,
    r.Runtime.tee_metrics,
    Metrics.encode_snapshot r.Runtime.registry,
    ((Runtime.Loss.gaps_declared r.Runtime.loss), (Runtime.Loss.batches_dropped r.Runtime.loss), (Runtime.Loss.events_dropped r.Runtime.loss)) )

let obs_effect_free =
  QCheck.Test.make ~name:"tracing on vs off: byte-identical sealed results and audit"
    ~count:12
    QCheck.(
      quad (int_range 1 2) (int_range 2 5) (int_range 0 10_000) (int_range 0 25))
    (fun (windows, batches, seed, rate_pct) ->
      let batch_events = 200 in
      let events_per_window = batches * batch_events in
      let bench = B.win_sum ~windows ~events_per_window ~batch_events () in
      let spec = { bench.B.spec with Datagen.authenticated = true } in
      let plan = Fault.uniform ~seed:(Int64.of_int seed) ~rate:(float_of_int rate_pct /. 100.0) () in
      let frames, _ = Lossy.apply plan (Datagen.frames spec) in
      let run tracer =
        det_run ~fault_plan:plan ?tracer ~windows ~events_per_window ~batch_events ~frames ()
      in
      let bench1, off = run None in
      let tr = Tracer.create () in
      let _, on = run (Some tr) in
      (* The traced run actually recorded something (otherwise this test
         proves nothing). *)
      if Tracer.event_count tr = 0 then QCheck.Test.fail_report "tracer recorded no events";
      observable_state off = observable_state on
      && verdict bench1 off = verdict bench1 on)

(* --- golden span tree --------------------------------------------------------- *)

(* Under the default cost model the DES charges crypto at crypto_scale, so
   a "prim" span must be charged the same way: a seal over a large join
   output otherwise runs far past the end of the task that contains it.
   Every secure-world span is emitted before its task's "des" span closes
   (DES tasks run serially for real), which is how spans map to tasks. *)
let test_prim_spans_within_des_tasks () =
  let tr = Tracer.create () in
  let bench = B.join ~windows:2 ~events_per_window:20000 ~batch_events:10000 () in
  let cfg = Runtime.Config.make ~version:D.Clear_ingress ~cores:4 ~tracer:tr () in
  let r = Runtime.run cfg bench.B.pipeline (B.frames bench) in
  Alcotest.(check int) "both windows sealed" 2 (List.length r.Runtime.results);
  let checked = ref 0 and seals = ref 0 in
  let pending = ref [] in
  List.iter
    (function
      | Tracer.Complete { cat = "des"; ts_ns; dur_ns; _ } ->
          List.iter
            (fun (name, p_end) ->
              incr checked;
              if name = "seal" then incr seals;
              if p_end > ts_ns +. dur_ns then
                Alcotest.failf "prim %s ends at %.0f ns, after its task's end at %.0f ns" name
                  p_end (ts_ns +. dur_ns))
            !pending;
          pending := []
      | Tracer.Complete { pid = 1; cat = "prim"; name; ts_ns; dur_ns; _ } ->
          pending := (name, ts_ns +. dur_ns) :: !pending
      | _ -> ())
    (Tracer.events tr);
  Alcotest.(check bool) "every prim span inside a task" true (!pending = []);
  Alcotest.(check int) "one seal per result" 2 !seals;
  Alcotest.(check bool) "primitive spans checked" true (!checked > !seals)

let test_golden_span_tree () =
  let tr = Tracer.create () in
  let _, r = det_run ~tracer:tr ~windows:2 ~events_per_window:2000 ~batch_events:500 () in
  Alcotest.(check int) "both windows sealed" 2 (List.length r.Runtime.results);
  let events = Tracer.events tr in
  (* (name, cat, ts_ns, pid) of every Complete event. *)
  let completes =
    List.filter_map
      (function
        | Tracer.Complete { name; cat; ts_ns; pid; _ } -> Some (name, cat, ts_ns, pid)
        | _ -> None)
      events
  in
  let name_of (n, _, _, _) = n in
  let ts_of (_, _, ts, _) = ts in
  let des_named prefix =
    List.filter
      (fun (name, cat, _, _) ->
        cat = "des"
        && String.length name >= String.length prefix
        && String.sub name 0 (String.length prefix) = prefix)
      completes
  in
  (* The expected hierarchy of the quickstart pipeline: one batch task
     per frame (ingest and Segment in one world switch) -> window close
     (with the sealing primitive inside). *)
  let batches = des_named "batch:" in
  let closes = des_named "close:w" in
  Alcotest.(check int) "one batch span per frame" 8 (List.length batches);
  Alcotest.(check int) "no separate ingest or windowing span" 0
    (List.length (des_named "ingest:" @ des_named "windowing:"));
  Alcotest.(check int) "one close span per window" 2 (List.length closes);
  Alcotest.(check bool) "close:w0 and close:w1" true
    (List.exists (fun c -> name_of c = "close:w0") closes
    && List.exists (fun c -> name_of c = "close:w1") closes);
  (* Primitive spans from inside the TEE, with one seal per sealed result. *)
  let prims = List.filter (fun (_, cat, _, _) -> cat = "prim") completes in
  let seals = List.filter (fun c -> name_of c = "seal") prims in
  Alcotest.(check bool) "primitive spans recorded" true (List.length prims > List.length seals);
  Alcotest.(check int) "one seal per result" (List.length r.Runtime.results) (List.length seals);
  Alcotest.(check bool) "prim spans live on the secure-world track" true
    (List.for_all (fun (_, _, _, pid) -> pid = 1) prims);
  (* Each seal runs inside its window-close task, so it inherits that
     task's virtual start time. *)
  List.iter
    (fun s ->
      Alcotest.(check bool) "seal ts matches a close span" true
        (List.exists (fun c -> ts_of c = ts_of s) closes))
    seals;
  (* Causality in virtual time. *)
  let min_ts l = List.fold_left (fun a c -> Float.min a (ts_of c)) infinity l in
  Alcotest.(check bool) "ingest precedes close" true (min_ts batches <= min_ts closes);
  (* SMC accounting: exactly one "smc" span per charged switch pair. *)
  let smc = List.filter (fun (_, cat, _, _) -> cat = "smc") completes in
  Alcotest.(check int) "smc span per switch pair" r.Runtime.dp_stats.D.switch_pairs
    (List.length smc);
  Alcotest.(check int) "no span left open" 0 (Tracer.open_depth tr ~pid:1 ~tid:0);
  (* And the whole trace exports as valid Chrome JSON. *)
  match parse_json (Chrome.to_json tr) with
  | Json.Obj _ -> ()
  | _ -> Alcotest.fail "trace did not export as a JSON object"

(* Determinism sanity for the golden test itself: two identical traced
   runs produce identical event streams (host_scale 0 removes all host
   noise, including from the trace). *)
let test_trace_replay_identical () =
  let go () =
    let tr = Tracer.create () in
    let _, _ = det_run ~tracer:tr () in
    Tracer.events tr
  in
  Alcotest.(check bool) "same trace twice" true (go () = go ())

(* --- resilience metrics regression ------------------------------------------- *)

let test_resilience_metrics_match () =
  let plan = Fault.uniform ~seed:7L ~rate:0.2 () in
  let windows = 2 and events_per_window = 2000 and batch_events = 200 in
  let bench = B.win_sum ~windows ~events_per_window ~batch_events () in
  let spec = { bench.B.spec with Datagen.authenticated = true } in
  let frames, link = Lossy.apply plan (Datagen.frames spec) in
  Alcotest.(check bool) "the link actually lost frames" true (link.Lossy.dropped > 0);
  let _, r = det_run ~fault_plan:plan ~windows ~events_per_window ~batch_events ~frames () in
  let reg = r.Runtime.registry in
  (* The registry double-books the control plane's loss accounting. *)
  Alcotest.(check bool) "faults actually declared gaps" true ((Runtime.Loss.gaps_declared r.Runtime.loss) > 0);
  Alcotest.(check int) "gaps" (Runtime.Loss.gaps_declared r.Runtime.loss) (Metrics.find_counter reg "control.gaps_declared");
  Alcotest.(check int) "batches dropped" (Runtime.Loss.batches_dropped r.Runtime.loss)
    (Metrics.find_counter reg "control.batches_dropped");
  Alcotest.(check int) "events dropped" (Runtime.Loss.events_dropped r.Runtime.loss)
    (Metrics.find_counter reg "control.events_dropped");
  Alcotest.(check int) "sheds observed = dataplane sheds" r.Runtime.dp_stats.D.sheds
    (Metrics.find_counter reg "control.sheds_observed");
  Alcotest.(check int) "busy observed = smc rejections" r.Runtime.dp_stats.D.smc_busy_rejections
    (Metrics.find_counter reg "control.smc_busy");
  Alcotest.(check int) "every data frame counted" (List.length (List.filter (function Sbt_net.Frame.Events _ -> true | _ -> false) frames))
    (Metrics.find_counter reg "control.frames");
  (* The TEE snapshot arrives only through the quote path; verify it the
     way the cloud would before trusting its numbers. *)
  let expected = Sbt_crypto.Sha256.digest r.Runtime.tee_metrics in
  Alcotest.(check bool) "tee quote verifies" true
    (Sbt_attest.Quote.verify ~device_key:egress_key ~expected
       ~nonce:(Bytes.of_string "sbt-run-final") r.Runtime.tee_quote);
  Alcotest.(check bool) "tampered snapshot rejected" true
    (not
       (Sbt_attest.Quote.verify ~device_key:egress_key
          ~expected:(Sbt_crypto.Sha256.digest (Bytes.cat r.Runtime.tee_metrics (Bytes.of_string "x")))
          ~nonce:(Bytes.of_string "sbt-run-final") r.Runtime.tee_quote));
  let tee = Metrics.decode_snapshot r.Runtime.tee_metrics in
  let tee_counter name =
    List.find_map
      (function
        | Metrics.S_counter { name = n; value } when n = name -> Some value | _ -> None)
      tee
    |> Option.get
  in
  Alcotest.(check int) "tee.sheds" r.Runtime.dp_stats.D.sheds (tee_counter "tee.sheds");
  Alcotest.(check int) "tee.events_ingested" r.Runtime.dp_stats.D.events_ingested
    (tee_counter "tee.events_ingested");
  Alcotest.(check int) "tee.gaps_declared" (Runtime.Loss.gaps_declared r.Runtime.loss) (tee_counter "tee.gaps_declared");
  Alcotest.(check int) "tee.invocations" r.Runtime.dp_stats.D.invocations
    (tee_counter "tee.invocations")

(* --- fusion counters (PR 7) --------------------------------------------------- *)

(* Pinned semantics: [smc.switches] is the data plane's completed
   entry/exit pair count for the run, and [audit.bytes] is the total
   compressed, authenticated audit payload uploaded — exactly what the
   fusion bench reads. *)
let fusion_run pipeline =
  let bench = B.fps ~windows:2 ~events_per_window:2_000 ~batch_events:250 () in
  let cost = { Sbt_tz.Cost_model.default with Sbt_tz.Cost_model.host_scale = 0.0 } in
  let platform = Sbt_tz.Platform.create ~cores:8 ~cost () in
  let cfg = Runtime.Config.make ~cores:4 ~platform () in
  Runtime.run cfg pipeline (B.frames bench)

let test_fusion_counter_semantics () =
  let r = fusion_run (Pipeline.fps_chain ()) in
  let reg = r.Runtime.registry in
  Alcotest.(check int) "smc.switches = dp switch pairs" r.Runtime.dp_stats.D.switch_pairs
    (Metrics.find_counter reg "smc.switches");
  Alcotest.(check int) "audit.bytes = uploaded payload bytes"
    (List.fold_left
       (fun acc (b : Sbt_attest.Log.batch) -> acc + Bytes.length b.Sbt_attest.Log.payload)
       0 r.Runtime.audit)
    (Metrics.find_counter reg "audit.bytes")

let test_fused_stages_cost_one () =
  (* The FPS chain's five per-record stages run as one chain per segment,
     so they cost exactly the switches and audit records of its first
     stage alone. *)
  let fps = Pipeline.fps_chain () in
  let first = { fps with Pipeline.batch_ops = [ List.hd fps.Pipeline.batch_ops ] } in
  let five = fusion_run fps and one = fusion_run first in
  let c r name = Metrics.find_counter r.Runtime.registry name in
  let records r =
    List.length (List.concat_map (Sbt_attest.Log.open_batch ~key:egress_key) r.Runtime.audit)
  in
  Alcotest.(check int) "same switches" (c one "smc.switches") (c five "smc.switches");
  Alcotest.(check int) "same audit records" (records one) (records five)

(* --- clean-run metrics -------------------------------------------------------- *)

let test_clean_run_counters () =
  let _, r = det_run () in
  let reg = r.Runtime.registry in
  Alcotest.(check int) "no gaps" 0 (Metrics.find_counter reg "control.gaps_declared");
  Alcotest.(check int) "no drops" 0 (Metrics.find_counter reg "control.batches_dropped");
  Alcotest.(check int) "8 frames" 8 (Metrics.find_counter reg "control.frames");
  Alcotest.(check int) "2 closes" 2 (Metrics.find_counter reg "control.windows_closed");
  let tee = Metrics.decode_snapshot r.Runtime.tee_metrics in
  let events =
    List.find_map
      (function
        | Metrics.S_counter { name = "tee.events_ingested"; value } -> Some value | _ -> None)
      tee
    |> Option.get
  in
  Alcotest.(check int) "tee counted every event" r.Runtime.total_events events;
  (* The batch-size histogram saw one observation per ingested frame. *)
  let batch_count =
    List.find_map
      (function
        | Metrics.S_histogram { name = "tee.batch_events"; count; _ } -> Some count | _ -> None)
      tee
    |> Option.get
  in
  Alcotest.(check int) "batch histogram count" 8 batch_count

(* Tenant-scope registries (PR 8): each tenant's engine counters live
   under [tenant<id>.*] in the shared root, and the enclave aggregates
   under [tenants.*] must equal the per-tenant sums. *)
let test_tenant_scoped_registries () =
  let module Session = Sbt_core.Session in
  let module Runtime = Sbt_core.Runtime in
  let cfg = Runtime.Config.make ~cores:4 ~deterministic:true () in
  let admit s =
    let b = B.win_sum ~windows:2 ~events_per_window:2_000 ~batch_events:500 () in
    Session.add_tenant ~pipeline:b.B.pipeline ~source:(B.frames b) s
  in
  let res = Session.create cfg |> admit |> admit |> Session.run in
  let reg = res.Session.registry in
  let frames id = Metrics.find_counter reg (Printf.sprintf "tenant%d.control.frames" id) in
  Alcotest.(check int) "tenant0 frames scoped" 8 (frames 0);
  Alcotest.(check int) "tenant1 frames scoped" 8 (frames 1);
  Alcotest.(check int) "tenants.count" 2 (Metrics.find_counter reg "tenants.count");
  let sum f = List.fold_left (fun a tr -> a + f tr) 0 res.Session.tenants in
  Alcotest.(check int)
    "tenants.events = per-tenant sum"
    (sum (fun tr -> tr.Session.tr_run.Runtime.total_events))
    (Metrics.find_counter reg "tenants.events");
  Alcotest.(check int)
    "tenants.windows = per-tenant sum"
    (sum (fun tr -> List.length tr.Session.tr_run.Runtime.results))
    (Metrics.find_counter reg "tenants.windows");
  Alcotest.(check int) "clean enclave: no sheds" 0 (Metrics.find_counter reg "tenants.sheds");
  Alcotest.(check int)
    "clean enclave: no declared gaps" 0
    (Metrics.find_counter reg "tenants.gaps_declared")

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter monotonic" `Quick test_counter_monotonic;
          Alcotest.test_case "kind collision" `Quick test_kind_collision;
          Alcotest.test_case "gauge high water" `Quick test_gauge_high_water;
          Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
          Alcotest.test_case "histogram percentiles" `Quick test_histogram_percentiles;
          Alcotest.test_case "snapshot roundtrip" `Quick test_snapshot_roundtrip;
        ] );
      ( "tracer",
        [
          Alcotest.test_case "span nesting" `Quick test_span_nesting;
          Alcotest.test_case "json writer" `Quick test_json_writer_roundtrips;
          Alcotest.test_case "chrome trace wellformed" `Quick test_chrome_trace_wellformed;
          Alcotest.test_case "bench json append" `Quick test_bench_json_append;
        ] );
      ( "observer-effect",
        [
          QCheck_alcotest.to_alcotest obs_effect_free;
          Alcotest.test_case "trace replay identical" `Quick test_trace_replay_identical;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "golden span tree" `Quick test_golden_span_tree;
          Alcotest.test_case "prim spans end inside their task" `Quick
            test_prim_spans_within_des_tasks;
          Alcotest.test_case "resilience metrics match" `Quick test_resilience_metrics_match;
          Alcotest.test_case "clean-run counters" `Quick test_clean_run_counters;
          Alcotest.test_case "fusion counter semantics" `Quick test_fusion_counter_semantics;
          Alcotest.test_case "five fused stages cost one stage's switches" `Quick
            test_fused_stages_cost_one;
          Alcotest.test_case "tenant-scoped registries" `Quick test_tenant_scoped_registries;
        ] );
    ]
