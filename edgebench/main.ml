(* The edge-to-cloud benchmark.

     dune exec --root . edgebench/main.exe -- \
       --workload taxi-enc --seed 1 --seconds 20 --trace 0

   Builds one workload from the seed, sets it up several times (setup_s is
   the median), then repeats checked end-to-end runs for --seconds.
   --trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
   and traced runs and prints the per-layer ledger.  The last stdout line
   is one JSON object; NOTES.md defines every metric. *)

open Edgebench
module B = Sbt_workloads.Benchmarks
module Runtime = Sbt_core.Runtime
module D = Sbt_core.Dataplane
module Metrics = Sbt_obs.Metrics
module Tracer = Sbt_obs.Tracer
module Trace = Sbt_sim.Trace
module Rate_search = Sbt_sim.Rate_search
module Clock = Sbt_sim.Clock

(* Set-up is repeated at least [setup_reps] times and until the repeats
   have taken [setup_min_s], so that a short set-up still gives a steady
   median. *)
let setup_reps = 5
let setup_min_s = 2.0

(* On a shared host, interference from other tenants only ever slows an
   iteration down, and it comes and goes on a scale of seconds to
   minutes, so the fastest iterations are the ones that measure the code
   (the runner's keep-the-cheapest-recording rule).  Throughput comes from
   the [rate_keep] fastest iterations; the delay pool is the windows of
   the [min_iters] fastest, at least 7 x 16 = 112 windows, so that its p90
   has at least ten windows beyond it.  Every run makes at least
   [min_iters] iterations. *)
let min_iters = 7
let rate_keep = 3

let fastest n key l =
  List.sort (fun a b -> compare (key b) (key a)) l |> List.filteri (fun i _ -> i < n)

let tail_pct = 90.0
let cores = 8

let median l =
  match List.sort compare l with
  | [] -> nan
  | s ->
      let a = Array.of_list s and n = List.length s in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let timed f =
  let t0 = Clock.now_ns () in
  let r = f () in
  (r, Clock.elapsed_ns ~since:t0 /. 1e9)

(* ---- per-layer ledger (traced runs) ----------------------------------- *)

let find_counter reg name = try Metrics.find_counter reg name with Not_found -> 0

(* Virtual self time per tracer category.  DES tasks run serially for real,
   so every secure-world span (smc, prim) emitted before a task's "des"
   span closes belongs to that task; the task's self time is its duration
   minus those children.  Children that overrun their task, or spans
   emitted outside any task, show up as a nonzero residual against the
   trace's total cost. *)
let vt_self tracer =
  let cats = Hashtbl.create 8 in
  let add cat v = Hashtbl.replace cats cat (v +. Option.value ~default:0.0 (Hashtbl.find_opt cats cat)) in
  let pending = ref 0.0 in
  List.iter
    (function
      | Tracer.Complete { cat = "des"; dur_ns; _ } ->
          add "des" (Float.max 0.0 (dur_ns -. !pending));
          add "overrun" (Float.max 0.0 (!pending -. dur_ns));
          pending := 0.0
      | Tracer.Complete { pid = 1; cat; dur_ns; _ } ->
          add cat dur_ns;
          pending := !pending +. dur_ns
      | _ -> ())
    (Tracer.events tracer);
  add "orphan" !pending;
  fun cat -> Option.value ~default:0.0 (Hashtbl.find_opt cats cat)

type ledger = {
  metrics : (string * (float * string)) list;
  info : (string * float) list;  (** printed, not reported: deterministic or derived *)
  sums_ok : bool;  (** host buckets fit inside the edge run; the TEE quote verified *)
}

let ledger ~gen_s ~search_s (w : Workload.t) tracer (o : Edge.outcome) (rate : Rate_search.result) =
  let r = o.Edge.run in
  let st = r.Runtime.dp_stats in
  let s ns = ns /. 1e9 and ms ns = ns /. 1e6 in
  let buckets = s st.D.crypto_ns +. s st.compute_ns +. s st.mem_ns +. s st.ingest_ns in
  let control_s = o.edge_s -. buckets in
  (* TEE-side counters leave only through the quoted snapshot. *)
  let tee =
    if
      Sbt_attest.Quote.verify ~device_key:o.cfg.Runtime.dp_config.D.egress_key
        ~expected:(Sbt_crypto.Sha256.digest r.tee_metrics)
        ~nonce:(Bytes.of_string "sbt-run-final") r.tee_quote
    then Some (Metrics.decode_snapshot r.tee_metrics)
    else None
  in
  let tee_counter name =
    List.fold_left
      (fun acc -> function
        | Metrics.S_counter { name = n; value } when n = name -> float_of_int value
        | _ -> acc)
      0.0 (Option.value ~default:[] tee)
  in
  let vt = vt_self tracer in
  let total_ns = Trace.total_cost_ns r.trace in
  let vt_sum = List.fold_left (fun acc c -> acc +. vt c) 0.0 [ "des"; "smc"; "prim"; "overrun"; "orphan" ] in
  let compressed =
    List.fold_left (fun acc (b : Sbt_attest.Log.batch) -> acc + Bytes.length b.payload) 0 r.audit
  in
  let mean_mb l = float_of_int (List.fold_left ( + ) 0 l) /. float_of_int (max 1 (List.length l)) /. 1e6 in
  let count n = (float_of_int n, "count") in
  {
    metrics =
      [
        ("workloads.gen_s", (gen_s, "s"));
        ("crypto.tee_s", (s st.crypto_ns, "s"));
        ("core.cloud_open_s", (o.cloud_open_s, "s"));
        ("prim.compute_s", (s st.compute_ns, "s"));
        ("umem.alloc_s", (s st.mem_ns, "s"));
        ("umem.pool_steady_mb", (mean_mb r.mem_samples_bytes, "MB"));
        ("umem.arena_refills", (tee_counter "umem.arena.refills", "count"));
        ("core.unpack_s", (s st.ingest_ns, "s"));
        ("core.edge_s", (o.edge_s, "s"));
        ("core.control_s", (control_s, "s"));
        ("core.invocations", count st.invocations);
        ("core.tasks", count r.tasks_executed);
        ("tz.switch_pairs", count st.switch_pairs);
        ("attest.records", count (List.length o.records));
        ("attest.raw_bytes", (float_of_int (Sbt_attest.Columnar.raw_size o.records), "bytes"));
        ("attest.compressed_bytes", (float_of_int compressed, "bytes"));
        ("attest.verify_ms", ((o.audit_open_s +. o.verify_s) *. 1e3, "ms"));
        ("sim.trace_cost_ms", (ms total_ns, "ms"));
        ("sim.makespan_ms", (ms r.makespan_ns, "ms"));
        ("sim.util_8c", (rate.Rate_search.utilization, "fraction"));
        ("sim.search_ms", (search_s *. 1e3, "ms"));
        ("vt.des_ms", (ms (vt "des"), "ms"));
        ("vt.prim_ms", (ms (vt "prim"), "ms"));
        ("core.backpressure_stalls", count st.backpressure_stalls);
        ("core.sheds", count st.sheds);
        ("control.gaps_declared", count (find_counter r.registry "control.gaps_declared"));
        ("control.smc_busy", count (find_counter r.registry "control.smc_busy"));
      ];
    info =
      [
        ("tz.modeled_switch_ms", ms st.modeled_switch_ns);
        ("vt.smc_ms", ms (vt "smc"));
        ("vt.residual_frac", (vt_sum -. total_ns) /. total_ns);
        ("host.control_frac", control_s /. o.edge_s);
        ("switch_pairs_per_kev", float_of_int st.switch_pairs /. (float_of_int (Workload.events w) /. 1e3));
      ];
    sums_ok = control_s >= 0.0 && tee <> None;
  }

(* ---- one measured run --------------------------------------------------- *)

(* Only these numbers outlive a run, so the heap grows by one float per
   trace node and run, and later runs pay hardly more GC than earlier
   ones. *)
type sample = {
  e2e_eps : float;
  sustain_eps : float;
  delays_ns : float list;  (** per window, from Trace.replay at the offered rate *)
  mem_peak_mb : float;
  audit_bytes : int;  (** signed upload: batch payloads and tags *)
  failed : int;  (** windows that failed the oracle, the open or the verdict *)
  ledger : ledger option;  (** traced runs only *)
  costs : float array;  (** recorded cost of each trace node, in schedule order *)
}

let same_shape (a : Trace.node array) (b : Trace.node array) =
  Array.length a = Array.length b
  && Array.for_all2
       (fun (x : Trace.node) (y : Trace.node) ->
         x.label = y.label && x.deps = y.deps && x.arrival_events = y.arrival_events
         && x.role = y.role)
       a b

let measure ?tracer ~shape ~gen_s ~reference (w : Workload.t) frames () =
  Gc.full_major ();
  let o = Edge.run ?tracer w frames in
  let wall = o.Edge.edge_s +. o.audit_open_s +. o.verify_s +. o.cloud_open_s in
  let trace = o.run.Runtime.trace in
  let rate, rate_s =
    timed (fun () ->
        Rate_search.max_rate ~trace ~cores
          ~target_delay_ns:(w.Workload.bench.B.target_delay_ms *. 1e6)
          ())
  in
  let replay, replay_s =
    timed (fun () -> Trace.replay trace ~cores ~rate_eps:w.Workload.offered_eps)
  in
  Printf.printf "  run: edge %.4f s, cloud %.4f s, sustain %.4g ev/s, worst delay %.3f ms%s\n%!"
    o.edge_s (wall -. o.edge_s) rate.Rate_search.rate_eps (replay.Trace.max_delay_ns /. 1e6)
    (if tracer = None then "" else " (traced)");
  {
    e2e_eps = float_of_int (Workload.events w) /. wall;
    sustain_eps = rate.Rate_search.rate_eps;
    delays_ns = List.map snd replay.Trace.delays;
    mem_peak_mb = float_of_int o.run.pool_high_water_bytes /. 1e6;
    audit_bytes =
      List.fold_left
        (fun acc (b : Sbt_attest.Log.batch) -> acc + Bytes.length b.payload + Bytes.length b.tag)
        0 o.run.audit;
    failed = Edge.failed_windows ~reference o;
    ledger =
      Option.map (fun tr -> ledger ~gen_s ~search_s:(rate_s +. replay_s) w tr o rate) tracer;
    costs =
      (let nodes = Trace.nodes trace in
       (match !shape with
       | None -> shape := Some nodes
       | Some s -> if not (same_shape s nodes) then failwith "trace shape differs between runs");
       Array.map (fun (n : Trace.node) -> n.cost_ns) nodes);
  }

let min_trace shape runs =
  Array.mapi
    (fun i (n : Trace.node) ->
      { n with cost_ns = List.fold_left (fun acc x -> Float.min acc x.costs.(i)) Float.infinity runs })
    shape
  |> Trace.of_nodes

(* ---- output ------------------------------------------------------------ *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun (name, (v, unit)) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    attempted failed (String.concat ", " m)

(* ---- main --------------------------------------------------------------- *)

let run ~name ~seed ~seconds ~trace =
  (* Set-up: workload construction + frame generation (source-side AES and
     HMAC live here). *)
  let setup () =
    Gc.full_major ();
    let t0 = Clock.now_ns () in
    match Workload.make name ~seed with
    | Error msg -> failwith msg
    | Ok w ->
        let frames, gen_s = timed (fun () -> B.frames w.Workload.bench) in
        (w, frames, Clock.elapsed_ns ~since:t0 /. 1e9, gen_s)
  in
  let rec repeat acc total =
    if List.length acc >= setup_reps && total >= setup_min_s then acc
    else
      let ((_, _, s, _) as x) = setup () in
      repeat (x :: acc) (total +. s)
  in
  let setups = repeat [] 0.0 in
  let w, frames, _, _ = List.hd setups in
  let setup_s = median (List.map (fun (_, _, s, _) -> s) setups) in
  let gen_s = median (List.map (fun (_, _, _, g) -> g) setups) in
  let events = Workload.events w in
  let windows = w.Workload.bench.B.spec.Sbt_workloads.Datagen.windows in
  let reference = Oracle.reference w in
  let shape = ref None in
  let measure ?tracer () = measure ?tracer ~shape ~gen_s ~reference w frames () in
  (* Warm-up run: untimed, but checked like the others. *)
  let warm = measure () in
  let t_start = Clock.now_ns () in
  let elapsed () = Clock.elapsed_ns ~since:t_start /. 1e9 in
  let plain = ref [] and traced = ref [] in
  let want_more () =
    elapsed () < seconds || List.length !plain < min_iters || (trace && List.length !traced < 2)
  in
  while want_more () do
    if trace && List.length !traced < List.length !plain then
      traced := measure ~tracer:(Tracer.create ()) () :: !traced
    else plain := measure () :: !plain
  done;
  let plain = List.rev !plain and traced = List.rev !traced in
  let all = (warm :: plain) @ traced in
  let attempted = windows * List.length all in
  let failed = List.fold_left (fun acc x -> acc + x.failed) 0 all in
  Printf.printf "workload %s seed %d: %d events, %d windows, %d set-ups, %d runs (%d traced) in %.1f s\n"
    name seed events windows (List.length setups) (List.length plain + List.length traced)
    (List.length traced) (elapsed ());
  Printf.printf "fail_frac %.6f (%d of %d windows)\n"
    (float_of_int failed /. float_of_int attempted) failed attempted;
  let med f l = median (List.map f l) in
  if not trace then begin
    let best = fastest rate_keep (fun x -> x.e2e_eps) plain in
    let kept = fastest min_iters (fun x -> x.e2e_eps) plain in
    let delays = List.concat_map (fun x -> x.delays_ns) kept |> List.sort compare |> Array.of_list in
    let n = Array.length delays in
    let rank p = min (n - 1) (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) - 1) in
    Printf.printf
      "delay sample: %d windows of the fastest %d of %d runs at %.0f ev/s offered; p50 and p%.0f (%d \
       beyond)\n"
      n (List.length kept) (List.length plain) w.Workload.offered_eps tail_pct (n - 1 - rank tail_pct);
    let shape_nodes = Option.get !shape in
    List.iter
      (fun k ->
        let g = min_iters in
        if List.length plain >= g * k then begin
          let ranked = fastest (g * k) (fun x -> x.e2e_eps) plain in
          let groups = List.init g (fun j -> List.filteri (fun i _ -> i mod g = j) ranked) in
          let traces = List.map (min_trace shape_nodes) groups in
          let ds =
            List.concat_map
              (fun t -> List.map snd (Trace.replay t ~cores ~rate_eps:w.Workload.offered_eps).Trace.delays)
              traces
            |> List.sort compare |> Array.of_list
          in
          let n = Array.length ds in
          let rank p = min (n - 1) (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) - 1) in
          let sus =
            median
              (List.map
                 (fun t ->
                   (Rate_search.max_rate ~trace:t ~cores
                      ~target_delay_ns:(w.Workload.bench.B.target_delay_ms *. 1e6) ())
                     .Rate_search.rate_eps)
                 traces)
          in
          Printf.printf "PROTO k=%d p50 %.5f p90 %.5f sustain %.6g\n" k (ds.(rank 50.0) /. 1e6)
            (ds.(rank 90.0) /. 1e6) sus
        end)
      [ 1; 2; 3; 4 ];
    print_result ~correct:(failed = 0) ~attempted ~failed
      [
        ("setup_s", (setup_s, "s"));
        ("e2e_eps", (med (fun x -> x.e2e_eps) best, "ev/s"));
        ("sustain_eps_8c", (med (fun x -> x.sustain_eps) best, "ev/s"));
        ("delay_p50_ms", (delays.(rank 50.0) /. 1e6, "ms"));
        ("delay_tail_ms", (delays.(rank tail_pct) /. 1e6, "ms"));
        ("tee_mem_peak_mb", (med (fun x -> x.mem_peak_mb) plain, "MB"));
        ( "audit_bytes_per_kev",
          (med (fun x -> float_of_int x.audit_bytes) plain /. (float_of_int events /. 1e3), "B/kev") );
      ]
  end
  else begin
    let ledgers = List.filter_map (fun x -> x.ledger) traced in
    let first = List.hd ledgers in
    let metrics =
      List.map
        (fun (name, (_, unit)) -> (name, (med (fun l -> fst (List.assoc name l.metrics)) ledgers, unit)))
        first.metrics
    in
    List.iter
      (fun (name, _) ->
        Printf.printf "  %-22s %.6g\n" name (med (fun l -> List.assoc name l.info) ledgers))
      first.info;
    let sums_ok = List.for_all (fun l -> l.sums_ok) ledgers in
    (* No observer effect: traced and untraced runs each open to the
       oracle's rows, hence to the same rows. *)
    let observer_ok = failed = 0 in
    let overhead = 1.0 -. (med (fun x -> x.e2e_eps) traced /. med (fun x -> x.e2e_eps) plain) in
    Printf.printf "layer sums ok: %b; traced = untraced results: %b\n" sums_ok observer_ok;
    print_result ~correct:(observer_ok && sums_ok) ~attempted ~failed
      (metrics @ [ ("obs.trace_overhead_frac", (overhead, "fraction")) ])
  end

let () =
  let name = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string name, " " ^ String.concat " | " Workload.names);
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " measured seconds");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer ledger");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "edgebench --workload NAME --seed N --seconds S --trace 0|1";
  match run ~name:!name ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) with
  | () -> ()
  | exception Failure msg ->
      prerr_endline ("edgebench: " ^ msg);
      exit 2
