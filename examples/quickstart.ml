(* Quickstart: declare a windowed-aggregation pipeline, feed it a small
   synthetic stream, run it on the modeled 8-core TrustZone edge platform,
   and read back the per-window results as the cloud consumer would.

   Run with: dune exec examples/quickstart.exe *)

module B = Sbt_workloads.Benchmarks
module Runner = Sbt_core.Runner
module D = Sbt_core.Dataplane

let () =
  print_endline "== StreamBox-TZ quickstart: windowed aggregation ==";
  (* 1. A pipeline: 1-second fixed windows, Sum over the value field.
        (Assembled from declarative operators; see Sbt_core.Pipeline.) *)
  let bench = B.win_sum ~windows:4 ~events_per_window:50_000 ~batch_events:10_000 () in
  let frames = B.frames bench in
  Printf.printf "source: %d events in %d frames\n" (Sbt_workloads.Datagen.total_events bench.B.spec)
    (List.length frames);

  (* 2. Run it: the data plane executes inside the modeled TEE; the runner
        also replays the recorded schedule at several core counts to find
        the max sustainable throughput under the delay target. *)
  let outcome =
    Runner.run ~cores_list:[ 2; 4; 8 ] ~target_delay_ms:bench.B.target_delay_ms
      (Sbt_core.Runtime.Config.make ()) bench.B.pipeline frames
  in

  (* 3. Results arrive encrypted and signed; open them with the shared key. *)
  let egress_key = Bytes.of_string "sbt-egress-key16" in
  List.iter
    (fun (w, sealed) ->
      let rows = D.open_result ~egress_key sealed in
      let lo = Int64.logand (Int64.of_int32 rows.(0).(0)) 0xFFFFFFFFL in
      let hi = Int64.shift_left (Int64.of_int32 rows.(0).(1)) 32 in
      Printf.printf "window %d: sum = %Ld\n" w (Int64.add hi lo))
    outcome.Runner.run.Sbt_core.Runtime.results;

  (* 4. Throughput and attestation summary. *)
  List.iter
    (fun p ->
      Printf.printf "%d cores: %.2f M events/s (%.1f MB/s) at %.1f ms worst delay\n"
        p.Runner.cores
        (p.Runner.events_per_sec /. 1e6)
        p.Runner.mb_per_sec p.Runner.delay_ms)
    outcome.Runner.points;
  Printf.printf "audit: %d records, %d B compressed (%.1fx); cloud verifier: %s\n"
    outcome.Runner.audit_records outcome.Runner.audit_compressed_bytes
    (float_of_int outcome.Runner.audit_raw_bytes
    /. float_of_int (max 1 outcome.Runner.audit_compressed_bytes))
    (if outcome.Runner.verified then "OK" else "VIOLATIONS")
