(* Counting distinct taxis per window (the paper's Distinct benchmark,
   modeled on the DEBS'15 taxi-trip dataset with its 11k distinct taxi
   ids).  Demonstrates a GroupBy-family pipeline: per-batch Sort stages,
   a per-window k-way Merge, Unique, and Count.

   Run with: dune exec examples/taxi_distinct.exe *)

module B = Sbt_workloads.Benchmarks
module Runner = Sbt_core.Runner
module D = Sbt_core.Dataplane

let () =
  print_endline "== StreamBox-TZ: distinct taxis per 1-second window ==";
  let bench = B.distinct ~windows:4 ~events_per_window:60_000 ~batch_events:10_000 () in
  let outcome =
    Runner.run ~cores_list:[ 2; 8 ] ~target_delay_ms:bench.B.target_delay_ms
      (Sbt_core.Runtime.Config.make ()) bench.B.pipeline (B.frames bench)
  in
  let egress_key = Bytes.of_string "sbt-egress-key16" in
  List.iter
    (fun (w, sealed) ->
      let rows = D.open_result ~egress_key sealed in
      Printf.printf "window %d: %ld distinct taxis\n" w rows.(0).(0))
    outcome.Runner.run.Sbt_core.Runtime.results;
  List.iter
    (fun p ->
      Printf.printf "%d cores: %.2f M events/s within %.0f ms delay target\n" p.Runner.cores
        (p.Runner.events_per_sec /. 1e6)
        bench.B.target_delay_ms)
    outcome.Runner.points;
  Printf.printf "steady TEE memory: %.1f MB; verifier: %s\n" outcome.Runner.mem_steady_mb
    (if outcome.Runner.verified then "OK" else "VIOLATIONS")
