(* Out-of-order medical vitals: watermarks, attested late data, and
   convergence under retract-and-reemit.

   A ward of 200 patients streams heart-rate samples to an edge box.
   Radio links reorder delivery: events keep their event times but a
   random 20% arrive up to a window late, behind a zero-slack heuristic
   watermark — so they surface in-TEE as *late data* after their window
   has already closed and sealed.

   The demo runs the same disordered stream under the two attested
   late-data policies and shows what each buys:

   - drop+declare: late segments are dropped but a signed Late_drop
     record declares exactly which events were lost, degrading (not
     failing) the cloud verdict;
   - retract-and-reemit: the closed window reopens, absorbs the late
     segment, and egresses a sealed Correction that supersedes the
     prior result — after the cloud-side merge the corrected results
     are byte-identical to a run with no disorder at all.

   It closes with the attack the policies exist to prevent: an edge
   that handled late data but presents its log under a declaration
   claiming the silent policy is caught by the replay
   (Undeclared_late_handling) — plus a session-window variant that
   closes each patient burst on event-time inactivity instead of the
   fixed grid.

   Run with: dune exec examples/medical_vitals.exe *)

module B = Sbt_workloads.Benchmarks
module G = Sbt_workloads.Datagen
module Fault = Sbt_fault.Fault
module D = Sbt_core.Dataplane
module P = Sbt_core.Pipeline
module Runner = Sbt_core.Runner
module Runtime = Sbt_core.Runtime
module Log = Sbt_attest.Log
module V = Sbt_attest.Verifier

(* B.vitals holds mutable random-walk state: construct a fresh bench per
   frame generation so every stream replays the identical walk. *)
let bench () = B.vitals ~windows:3 ~events_per_window:20_000 ~batch_events:4_000 ()

let in_order_frames () = B.frames (bench ())

let disordered_frames () =
  let b = bench () in
  G.frames
    {
      b.B.spec with
      G.disorder = Fault.disorder_plan ~seed:4242L ~rate:0.2 ();
      watermark = G.Heuristic 0;
    }

let run ?late_policy pipeline frames =
  Runner.run (Sbt_core.Runtime.Config.make ~deterministic:true ?late_policy ()) pipeline frames

let () =
  print_endline "== StreamBox-TZ out-of-order vitals: late data with a paper trail ==";
  let pipeline = (bench ()).B.pipeline in

  (* Reference: the same ward with a perfectly ordered uplink. *)
  let ordered = run pipeline (in_order_frames ()) in

  (* Policy 1 — drop+declare: bounded loss, signed and counted. *)
  let dropped = run ~late_policy:D.Drop_declare pipeline (disordered_frames ()) in
  let dr = dropped.Runner.verifier_report in
  Printf.printf "drop+declare : %d Late_drop record(s) covering %d event(s), verdict %s\n"
    dr.V.late_drops dr.V.late_events
    (if dropped.Runner.verified then "DEGRADED-but-ACCEPTED" else "REJECTED");

  (* Policy 2 — retract-and-reemit: no loss, corrected egress. *)
  let retracted = run ~late_policy:D.Retract_reemit pipeline (disordered_frames ()) in
  let rr = retracted.Runner.verifier_report in
  Printf.printf "retract      : %d correction(s) over window(s) [%s], verdict %s\n"
    rr.V.corrections
    (String.concat "; " (List.map string_of_int rr.V.corrected_windows))
    (if retracted.Runner.verified then "ACCEPTED" else "REJECTED");

  (* The cloud merges corrections (highest generation per window wins,
     re-sealed under the canonical egress nonce): the disordered run's
     final bytes equal the in-order run's. *)
  Printf.printf "convergence  : corrected results %s the in-order run's sealed bytes\n"
    (if retracted.Runner.results_corrected = ordered.Runner.run.Runtime.results then "MATCH"
     else "DIVERGE (bug!)");

  (* The attack: present the retract run's log under a declaration that
     claims the silent policy.  The replay sees Correction records no
     declared policy accounts for and rejects. *)
  let key = (D.Config.make ~version:D.Full ()).D.egress_key in
  let records =
    List.concat_map (fun b -> Log.open_batch ~key b) retracted.Runner.run.Runtime.audit
  in
  let lying_spec = { retracted.Runner.run.Runtime.verifier_spec with V.late_policy = 0 } in
  let caught = V.verify lying_spec records in
  Printf.printf "undeclared   : silent-policy declaration over a correcting log -> %s\n"
    (match caught.V.violations with
    | [] -> "NOT CAUGHT (bug!)"
    | first :: rest ->
        Format.asprintf "REJECTED (%a%s)" V.pp_violation first
          (if rest = [] then "" else Printf.sprintf " + %d more" (List.length rest)));

  (* Session windows: nurses take vitals in rounds, so the stream is
     bursty — close each round after 400 ticks of event-time silence
     instead of on the fixed grid (in-order source only: session
     assignment needs trustworthy event times). *)
  let round ~seq ~start =
    let rows = Array.init 12 (fun i -> [| Int32.of_int (i mod 4); 750l; Int32.of_int (start + (i * 20)) |]) in
    Sbt_net.Frame.Events
      {
        seq;
        stream = 0;
        events = Array.length rows;
        windows = [ start / 1_000 ];
        payload = Sbt_net.Frame.pack_events ~width:3 rows;
        encrypted = false;
        mac = Bytes.empty;
      }
  in
  let rounds =
    [
      round ~seq:0 ~start:0;
      round ~seq:1 ~start:900;  (* 680 ticks of silence: new session *)
      round ~seq:2 ~start:2_100; (* 980 more: a third *)
      Sbt_net.Frame.watermark ~seq:0 ~value:3_000 ();
    ]
  in
  let sessions = run (P.with_session_gap pipeline ~gap_ticks:400) rounds in
  Printf.printf "sessions     : 3 ward rounds under a 400-tick gap -> %d sealed session(s), verdict %s\n"
    (List.length sessions.Runner.run.Runtime.results)
    (if sessions.Runner.verified then "ACCEPTED" else "REJECTED")
