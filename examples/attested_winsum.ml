(* The full attestation loop (paper §7): run a pipeline on the edge, ship
   the signed, columnar-compressed audit records to the "cloud", replay
   them against the declared pipeline, and then demonstrate that the three
   attack classes the verifier exists for are actually caught:

   - a dropped batch (control plane silently discards data),
   - a wrong primitive (control plane deviates from the declaration),
   - a forged log batch (tampering with the upload).

   Run with: dune exec examples/attested_winsum.exe *)

module B = Sbt_workloads.Benchmarks
module Runtime = Sbt_core.Runtime
module D = Sbt_core.Dataplane
module Pipeline = Sbt_core.Pipeline
module Log = Sbt_attest.Log
module Record = Sbt_attest.Record
module V = Sbt_attest.Verifier

let egress_key = Bytes.of_string "sbt-egress-key16"

let run_edge () =
  let bench = B.win_sum ~windows:3 ~events_per_window:20_000 ~batch_events:4_000 () in
  let cfg = Runtime.Config.make () in
  let r =
    Sbt_core.Session.create cfg
    |> Sbt_core.Session.add_tenant ~pipeline:bench.B.pipeline ~source:(B.frames bench)
    |> Sbt_core.Session.run_single
  in
  (r, bench)

let verdict name report =
  Printf.printf "%-28s -> %s (%d records, %d windows, max delay %d us)\n" name
    (if V.ok report then "ACCEPTED" else "REJECTED")
    report.V.records_replayed report.V.windows_verified report.V.max_delay

let () =
  print_endline "== StreamBox-TZ continuous attestation ==";
  let r, _bench = run_edge () in
  (* Cloud side: authenticate and decompress each uploaded batch. *)
  let records = List.concat_map (fun b -> Log.open_batch ~key:egress_key b) r.Runtime.audit in
  Printf.printf "edge uploaded %d signed batches (%d records)\n" (List.length r.Runtime.audit)
    (List.length records);

  (* 1. Honest run verifies. *)
  verdict "honest run" (V.verify r.Runtime.verifier_spec records);

  (* 2. Dropped batch: remove one batch's windowing record. *)
  let dropped =
    let seen = ref false in
    List.filter
      (function
        | Record.Windowing _ when not !seen ->
            seen := true;
            false
        | _ -> true)
      records
  in
  verdict "dropped window assignment" (V.verify r.Runtime.verifier_spec dropped);

  (* 3. Wrong primitive: claim a Count ran where Sum was declared. *)
  let sum_id = Sbt_prim.Primitive.to_id Sbt_prim.Primitive.Sum in
  let count_id = Sbt_prim.Primitive.to_id Sbt_prim.Primitive.Count in
  let rewritten =
    List.map
      (function
        | Record.Execution { ts; op; inputs; outputs; hints } when op = sum_id ->
            Record.Execution { ts; op = count_id; inputs; outputs; hints }
        | x -> x)
      records
  in
  verdict "wrong primitive executed" (V.verify r.Runtime.verifier_spec rewritten);

  (* 4. Forged upload: flip a byte in a signed batch. *)
  (match r.Runtime.audit with
  | b :: _ ->
      let forged = Bytes.copy b.Log.payload in
      Bytes.set forged 4 (Char.chr (Char.code (Bytes.get forged 4) lxor 0x80));
      (try
         ignore (Log.open_batch ~key:egress_key { b with Log.payload = forged });
         print_endline "forged audit batch            -> NOT DETECTED (bug!)"
       with Invalid_argument _ -> print_endline "forged audit batch           -> REJECTED (bad MAC)")
  | [] -> ());

  (* 5. Freshness: re-verify with a tight delay bound. *)
  let strict = { r.Runtime.verifier_spec with V.freshness_bound = Some 1 } in
  verdict "1us freshness bound" (V.verify strict records)
