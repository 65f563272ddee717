(* Tests for the deterministic fault-injection layer: plan determinism,
   per-site draw behaviour, and the lossy-link wrapper. *)

module Fault = Sbt_fault.Fault
module Frame = Sbt_net.Frame
module Lossy = Sbt_net.Lossy

let payload_of rows = Frame.pack_events ~width:3 (Array.of_list (List.map Array.of_list rows))

let mk_events ?(stream = 0) ?(mac = Bytes.empty) seq =
  Frame.Events
    {
      seq;
      stream;
      events = 2;
      windows = [ 0 ];
      payload = payload_of [ [ 1l; 2l; 0l ]; [ 3l; 4l; 1l ] ];
      encrypted = false;
      mac;
    }

(* --- plan basics ------------------------------------------------------------ *)

let test_none_is_quiet () =
  Alcotest.(check bool) "none is none" true (Fault.is_none Fault.none);
  for seq = 0 to 100 do
    Alcotest.(check bool) "no drops" false (Fault.drops_frame Fault.none ~stream:0 ~seq);
    Alcotest.(check bool) "no corruption" false (Fault.corrupts_frame Fault.none ~stream:0 ~seq);
    Alcotest.(check int) "no smc failures" 0 (Fault.smc_failures Fault.none ~stream:0 ~seq);
    Alcotest.(check bool) "no sheds" false (Fault.pool_sheds Fault.none ~stream:0 ~seq);
    Alcotest.(check bool) "no uplink loss" false (Fault.uplink_drops Fault.none ~seq)
  done

let test_uniform_not_none () =
  Alcotest.(check bool) "uniform 0.1 active" false (Fault.is_none (Fault.uniform ~rate:0.1 ()));
  Alcotest.(check bool) "uniform 0.0 inert" true (Fault.is_none (Fault.uniform ~rate:0.0 ()))

let test_decisions_deterministic () =
  (* Same plan, same identities: identical decisions, in any query order. *)
  let p1 = Fault.uniform ~seed:99L ~rate:0.3 () in
  let p2 = Fault.uniform ~seed:99L ~rate:0.3 () in
  let obs plan order =
    List.map
      (fun seq ->
        ( Fault.drops_frame plan ~stream:1 ~seq,
          Fault.corrupts_frame plan ~stream:1 ~seq,
          Fault.smc_failures plan ~stream:1 ~seq,
          Fault.pool_sheds plan ~stream:1 ~seq,
          Fault.uplink_drops plan ~seq ))
      order
    |> List.sort compare
  in
  let fwd = List.init 50 Fun.id in
  let bwd = List.rev fwd in
  Alcotest.(check bool) "identical decisions" true (obs p1 fwd = obs p2 fwd);
  Alcotest.(check bool) "order independent" true (obs p1 fwd = obs p2 bwd)

let test_seed_matters () =
  let decisions seed =
    let plan = Fault.uniform ~seed ~rate:0.3 () in
    List.init 200 (fun seq -> Fault.drops_frame plan ~stream:0 ~seq)
  in
  Alcotest.(check bool) "different seeds diverge" true (decisions 1L <> decisions 2L)

let test_rate_scales () =
  let count rate =
    let plan = Fault.uniform ~seed:5L ~rate () in
    List.length
      (List.filter Fun.id (List.init 2000 (fun seq -> Fault.drops_frame plan ~stream:0 ~seq)))
  in
  let lo = count 0.02 and hi = count 0.4 in
  Alcotest.(check bool) (Printf.sprintf "%d < %d" lo hi) true (lo < hi);
  Alcotest.(check bool) "low rate plausible" true (lo > 0 && lo < 400);
  Alcotest.(check bool) "high rate plausible" true (hi > 400)

let test_schedule_gates () =
  let spec = { Fault.quiet with Fault.drop_p = 1.0; schedule = Some (10, 19) } in
  let plan = { Fault.none with Fault.ingress = spec } in
  List.iter
    (fun seq ->
      let inside = seq >= 10 && seq <= 19 in
      Alcotest.(check bool)
        (Printf.sprintf "seq %d" seq)
        inside
        (Fault.drops_frame plan ~stream:0 ~seq))
    (List.init 30 Fun.id)

let test_corrupt_byte_bounds () =
  let plan = Fault.uniform ~seed:3L ~rate:1.0 () in
  for seq = 0 to 50 do
    let idx, mask = Fault.corrupt_byte plan ~stream:0 ~seq ~len:64 in
    Alcotest.(check bool) "index in range" true (idx >= 0 && idx < 64);
    Alcotest.(check bool) "mask nonzero" true (mask land 0xFF <> 0 && mask >= 0)
  done

let test_smc_failures_bounded () =
  let plan = Fault.uniform ~seed:3L ~rate:0.5 () in
  let max_burst = plan.Fault.smc.Fault.max_burst in
  let seen_nonzero = ref false in
  for seq = 0 to 200 do
    let n = Fault.smc_failures plan ~stream:0 ~seq in
    if n > 0 then seen_nonzero := true;
    Alcotest.(check bool) "within burst" true (n >= 0 && n <= max_burst)
  done;
  Alcotest.(check bool) "some failures drawn" true !seen_nonzero

let test_backoff_grows () =
  let plan = Fault.uniform ~seed:3L ~rate:0.5 () in
  let b1 = Fault.backoff_ns plan ~stream:0 ~seq:7 ~attempt:1 in
  let b3 = Fault.backoff_ns plan ~stream:0 ~seq:7 ~attempt:3 in
  Alcotest.(check bool) "positive" true (b1 > 0.0);
  Alcotest.(check bool) "roughly exponential" true (b3 > 2.0 *. b1);
  Alcotest.(check (float 0.0)) "deterministic" b1 (Fault.backoff_ns plan ~stream:0 ~seq:7 ~attempt:1)

let test_backoff_capped () =
  (* However deep the retry chain, no single backoff exceeds the cap. *)
  let plan = { (Fault.uniform ~seed:9L ~rate:0.5 ()) with Fault.backoff_cap_ns = 200_000.0 } in
  for attempt = 1 to 40 do
    for seq = 0 to 20 do
      let b = Fault.backoff_ns plan ~stream:1 ~seq ~attempt in
      Alcotest.(check bool) "positive" true (b > 0.0);
      Alcotest.(check bool) "within cap" true (b <= plan.Fault.backoff_cap_ns)
    done
  done

let test_backoff_decorrelates_retriers () =
  (* Concurrent retriers of the same entry draw different jitter, so
     they do not thunder back through the SMC gate in lockstep. *)
  let plan = Fault.uniform ~seed:3L ~rate:0.5 () in
  let b r = Fault.backoff_ns ~retrier:r plan ~stream:0 ~seq:7 ~attempt:1 in
  Alcotest.(check bool) "retriers differ" true (b 0 <> b 1 && b 1 <> b 2);
  Alcotest.(check (float 0.0)) "default retrier is retrier 0"
    (Fault.backoff_ns plan ~stream:0 ~seq:7 ~attempt:1)
    (b 0)

let test_crash_plan_arming () =
  Alcotest.(check bool) "none has no crash" true (Fault.crash_after Fault.none = None);
  let armed = Fault.with_crash Fault.none ~site:Fault.Crash_control ~after_tasks:5 in
  (match Fault.crash_after armed with
  | Some (Fault.Crash_control, 5) -> ()
  | _ -> Alcotest.fail "expected Crash_control after 5 tasks");
  Alcotest.(check bool) "disarmed again" true
    (Fault.crash_after (Fault.without_crash armed) = None);
  Alcotest.(check string) "site names" "crash-reboot" (Fault.site_name Fault.Crash_reboot)

(* --- lossy link ------------------------------------------------------------- *)

let test_lossy_identity_when_none () =
  let frames = List.init 20 mk_events @ [ Frame.Watermark { seq = 20; value = 1000 } ] in
  let out, stats = Lossy.apply Fault.none frames in
  Alcotest.(check bool) "physically identical" true (out == frames);
  Alcotest.(check int) "all delivered" (List.length frames) stats.Lossy.delivered;
  Alcotest.(check int) "none dropped" 0 stats.Lossy.dropped;
  Alcotest.(check int) "none corrupted" 0 stats.Lossy.corrupted

let test_lossy_damages_and_reports () =
  let n = 400 in
  let frames = List.init n mk_events in
  let plan = Fault.uniform ~seed:11L ~rate:0.2 () in
  let out, stats = Lossy.apply plan frames in
  Alcotest.(check int) "conservation" n (stats.Lossy.delivered + stats.Lossy.dropped);
  Alcotest.(check int) "survivors" stats.Lossy.delivered (List.length out);
  Alcotest.(check bool) "some loss at 20%" true (stats.Lossy.dropped > 0);
  Alcotest.(check bool) "some corruption at 20%" true (stats.Lossy.corrupted > 0);
  (* Replay is exact. *)
  let out2, stats2 = Lossy.apply plan frames in
  Alcotest.(check bool) "replayable" true (out = out2 && stats = stats2)

let test_lossy_watermarks_survive () =
  let frames =
    List.concat_map
      (fun i -> [ mk_events i; Frame.Watermark { seq = 1000 + i; value = i } ])
      (List.init 100 Fun.id)
  in
  let plan = Fault.uniform ~seed:13L ~rate:0.5 () in
  let out, _ = Lossy.apply plan frames in
  let wms = List.length (List.filter (function Frame.Watermark _ -> true | _ -> false) out) in
  Alcotest.(check int) "every watermark delivered" 100 wms

let test_lossy_corruption_detectable () =
  (* A corrupted sealed frame still carries its original MAC, so the edge
     rejects it instead of ingesting garbage. *)
  let key = Sbt_crypto.Aead.of_key (Bytes.of_string "sbt-ingress-k16!") in
  let frames = List.map (fun f -> Frame.seal ~key f) (List.init 300 mk_events) in
  let plan = Fault.uniform ~seed:17L ~rate:0.3 () in
  let out, stats = Lossy.apply plan frames in
  Alcotest.(check bool) "corrupted some" true (stats.Lossy.corrupted > 0);
  let bad = List.filter (fun f -> not (Frame.mac_valid ~key f)) out in
  Alcotest.(check int) "every corruption caught by the MAC" stats.Lossy.corrupted (List.length bad)

let () =
  Alcotest.run "fault"
    [
      ( "plan",
        [
          Alcotest.test_case "none is quiet" `Quick test_none_is_quiet;
          Alcotest.test_case "uniform" `Quick test_uniform_not_none;
          Alcotest.test_case "deterministic" `Quick test_decisions_deterministic;
          Alcotest.test_case "seed matters" `Quick test_seed_matters;
          Alcotest.test_case "rate scales" `Quick test_rate_scales;
          Alcotest.test_case "schedule gates" `Quick test_schedule_gates;
          Alcotest.test_case "corrupt byte bounds" `Quick test_corrupt_byte_bounds;
          Alcotest.test_case "smc burst bounded" `Quick test_smc_failures_bounded;
          Alcotest.test_case "backoff grows" `Quick test_backoff_grows;
          Alcotest.test_case "backoff capped" `Quick test_backoff_capped;
          Alcotest.test_case "backoff decorrelates retriers" `Quick test_backoff_decorrelates_retriers;
          Alcotest.test_case "crash plan arming" `Quick test_crash_plan_arming;
        ] );
      ( "lossy-link",
        [
          Alcotest.test_case "identity when none" `Quick test_lossy_identity_when_none;
          Alcotest.test_case "damages and reports" `Quick test_lossy_damages_and_reports;
          Alcotest.test_case "watermarks survive" `Quick test_lossy_watermarks_survive;
          Alcotest.test_case "corruption detectable" `Quick test_lossy_corruption_detectable;
        ] );
    ]
