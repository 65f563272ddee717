(* The paper's motivating scenario (Figure 2): predicting power-grid load
   from smart-plug telemetry.

   Part 1 runs the 9.2 Power benchmark pipeline (houses with the most
   above-average plugs per 1-second window).  Part 2 runs the actual
   Figure 2 prediction: per-house averages fed through an exponentially
   weighted moving average *inside the TEE* - the EWMA is a certified
   Combine2 UDF over a cross-window state uArray, so the predictions
   leave the edge already sealed and attested.

   Run with: dune exec examples/power_grid.exe *)

module B = Sbt_workloads.Benchmarks
module Runner = Sbt_core.Runner
module D = Sbt_core.Dataplane

let egress_key = Bytes.of_string "sbt-egress-key16"

let run_in_tee_prediction () =
  print_endline "-- part 2: in-TEE EWMA next-window load prediction --";
  let bench = B.power ~windows:5 ~events_per_window:20_000 ~batch_events:5_000 () in
  let pipe = Sbt_core.Pipeline.load_predict ~alpha_percent:50 () in
  let r =
    Sbt_core.Session.create (Sbt_core.Runtime.Config.make ())
    |> Sbt_core.Session.add_tenant ~pipeline:pipe ~source:(B.frames bench)
    |> Sbt_core.Session.run_single
  in
  List.sort compare r.Sbt_core.Runtime.results
  |> List.iter (fun (w, sealed) ->
         let rows = D.open_result ~egress_key sealed in
         Printf.printf "window %d predictions (house:load):" w;
         Array.iteri
           (fun i row ->
             if i < 6 then Printf.printf " h%ld:%ld" row.(0) row.(1))
           rows;
         Printf.printf " ... (%d houses)\n" (Array.length rows));
  let records =
    List.concat_map
      (fun b -> Sbt_attest.Log.open_batch ~key:egress_key b)
      r.Sbt_core.Runtime.audit
  in
  let report = Sbt_attest.Verifier.verify r.Sbt_core.Runtime.verifier_spec records in
  Printf.printf "stateful attestation (state uArrays flow across windows): %s\n"
    (if Sbt_attest.Verifier.ok report then "OK" else "VIOLATIONS")

let () =
  print_endline "== StreamBox-TZ power-grid load prediction (Figure 2) ==";
  print_endline "-- part 1: houses with the most above-average plugs (9.2 Power) --";
  let bench = B.power ~windows:5 ~events_per_window:40_000 ~batch_events:8_000 () in
  let outcome =
    Runner.run ~cores_list:[ 8 ] ~target_delay_ms:bench.B.target_delay_ms
      (Sbt_core.Runtime.Config.make ()) bench.B.pipeline (B.frames bench)
  in
  (* Per window: the houses with the most high-power plugs. *)
  let ewma : (int, float) Hashtbl.t = Hashtbl.create 64 in
  let alpha = 0.5 in
  List.iter
    (fun (w, sealed) ->
      let rows = D.open_result ~egress_key sealed in
      Printf.printf "window %d: top houses by high-power plugs:" w;
      Array.iter
        (fun r ->
          let house = Int32.to_int r.(0) and count = Int32.to_int r.(1) in
          Printf.printf " h%d=%d" house count;
          (* Next-window prediction: EWMA over recent windows, as in the
             paper's example pipeline. *)
          let prev = Option.value ~default:(float_of_int count) (Hashtbl.find_opt ewma house) in
          Hashtbl.replace ewma house ((alpha *. float_of_int count) +. ((1.0 -. alpha) *. prev)))
        rows;
      print_newline ())
    outcome.Runner.run.Sbt_core.Runtime.results;
  print_endline "predicted high-power plug counts for the next window:";
  Hashtbl.fold (fun h p acc -> (h, p) :: acc) ewma []
  |> List.sort (fun (_, a) (_, b) -> compare b a)
  |> List.filteri (fun i _ -> i < 5)
  |> List.iter (fun (h, p) -> Printf.printf "  house %d: %.1f\n" h p);
  (match outcome.Runner.points with
  | [ p ] ->
      Printf.printf "throughput on 8 modeled cores: %.2f M events/s (%.1f MB/s)\n"
        (p.Runner.events_per_sec /. 1e6)
        p.Runner.mb_per_sec
  | _ -> ());
  Printf.printf "verifier: %s\n" (if outcome.Runner.verified then "OK" else "VIOLATIONS");
  run_in_tee_prediction ()
