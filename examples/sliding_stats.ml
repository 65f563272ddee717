(* Sliding-window statistics: the generic stream model the paper builds on
   (Beam-style windows, §2.2) generalizes its fixed windows to sliding
   ones.  Here a 1-second window slides every 250 ms over a sensor stream,
   so each event contributes to four overlapping windows and the engine
   emits a fresh aggregate four times per second — while every overlapping
   window is still individually attested by the cloud verifier.

   Run with: dune exec examples/sliding_stats.exe *)

module Datagen = Sbt_workloads.Datagen
module Pipeline = Sbt_core.Pipeline
module Runtime = Sbt_core.Runtime
module D = Sbt_core.Dataplane
module V = Sbt_attest.Verifier

let egress_key = Bytes.of_string "sbt-egress-key16"

let () =
  print_endline "== StreamBox-TZ sliding windows: 1s window, 250ms slide ==";
  let spec =
    { (Datagen.default_spec ~windows:12 ~events_per_window:10_000 ~batch_events:2_500 ()) with
      Datagen.window_ticks = 250 (* slide: watermark every 250 ms *);
      window_span_ticks = Some 1000 (* each window spans 1 s *);
      seed = 21L;
    }
  in
  let frames = Datagen.frames spec in
  let pipe = Pipeline.win_sum ~window_size_ticks:1000 ~window_slide_ticks:250 () in
  let r =
    Sbt_core.Session.create (Runtime.Config.make ())
    |> Sbt_core.Session.add_tenant ~pipeline:pipe ~source:frames
    |> Sbt_core.Session.run_single
  in
  List.sort compare r.Runtime.results
  |> List.iter (fun (w, sealed) ->
         let rows = D.open_result ~egress_key sealed in
         let lo = Int64.logand (Int64.of_int32 rows.(0).(0)) 0xFFFFFFFFL in
         let hi = Int64.shift_left (Int64.of_int32 rows.(0).(1)) 32 in
         Printf.printf "window %2d  [%4d ms, %4d ms)  sum = %Ld\n" w (w * 250)
           ((w * 250) + 1000) (Int64.add hi lo));
  let records =
    List.concat_map (fun b -> Sbt_attest.Log.open_batch ~key:egress_key b) r.Runtime.audit
  in
  let report = V.verify r.Runtime.verifier_spec records in
  Printf.printf "verifier over %d overlapping windows: %s\n" report.V.windows_verified
    (if V.ok report then "OK" else "VIOLATIONS")
