(* Self-tests of the benchmark's correctness oracle and parameter guard. *)

module W = Edgebench.Workload
module Oracle = Edgebench.Oracle
module Edge = Edgebench.Edge
module D = Sbt_core.Dataplane

let small = function
  | "fps-small" -> { W.windows = 2; events_per_window = 2_000; batch_events = 64 }
  | _ -> { W.windows = 2; events_per_window = 4_000; batch_events = 1_000 }

let make ?size name =
  match W.make ~size:(Option.value ~default:(small name) size) name ~seed:5 with
  | Ok w -> w
  | Error msg -> Alcotest.fail msg

let run name =
  let w = make name in
  let o = Edge.run w (Sbt_workloads.Benchmarks.frames w.W.bench) in
  (w, o, Oracle.reference w)

let clean_run name () =
  let _, o, reference = run name in
  Alcotest.(check int) "failed windows" 0 (Edge.failed_windows ~reference o)

let flipped_result () =
  let _, o, reference = run "taxi-enc" in
  let egress_key = o.Edge.cfg.Sbt_core.Runtime.dp_config.D.egress_key in
  let flip (w, (s : D.sealed_result)) =
    if w <> 0 then (w, s)
    else begin
      let cipher = Bytes.copy s.cipher in
      Bytes.set cipher 0 (Char.chr (Char.code (Bytes.get cipher 0) lxor 1));
      (w, { s with cipher })
    end
  in
  let opened = List.map (fun r -> Edge.open_window ~egress_key (flip r)) o.run.results in
  Alcotest.(check int) "failed windows" 1 (Edge.failed_windows ~reference { o with opened })

let wrong_reference () =
  let _, o, reference = run "taxi-enc" in
  let wrong =
    Array.mapi
      (fun w r ->
        match r with
        | Oracle.Exact [| [| n |] |] when w = 1 -> Oracle.Exact [| [| Int32.succ n |] |]
        | r -> r)
      reference
  in
  Alcotest.(check int) "failed windows" 1 (Edge.failed_windows ~reference:wrong o)

let batch_guard () =
  let size epw = { W.windows = 1; events_per_window = epw; batch_events = 64 } in
  (match W.make ~size:(size 16_320) "fps-small" ~seed:1 with
  | Ok _ -> Alcotest.fail "255 batches per window accepted"
  | Error msg ->
      let contains sub =
        let n = String.length sub in
        let rec go i = i + n <= String.length msg && (String.sub msg i n = sub || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "names the cause" true (contains "255 batches per window"));
  match W.make ~size:(size 16_000) "fps-small" ~seed:1 with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail msg

let () =
  Alcotest.run "edgebench"
    [
      ("oracle", List.map (fun n -> Alcotest.test_case n `Quick (clean_run n)) W.names);
      ( "corruption",
        [
          Alcotest.test_case "flipped sealed byte fails a window" `Quick flipped_result;
          Alcotest.test_case "wrong reference fails a window" `Quick wrong_reference;
        ] );
      ("guard", [ Alcotest.test_case "255 batches per window rejected" `Quick batch_guard ]);
    ]
