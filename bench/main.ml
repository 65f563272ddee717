(* The StreamBox-TZ benchmark harness: one section per table/figure of the
   paper's evaluation (Section 9).  Run with `dune exec bench/main.exe`.

   Absolute numbers come from this container, not the paper's HiKey; the
   *shape* of each result (who wins, by what factor, where the knees are)
   is what reproduces the paper.  See EXPERIMENTS.md for the side-by-side
   record.

   Environment knobs:
     SBT_BENCH_SCALE=smoke|quick|full   workload sizes (default quick)

   Arguments select sections: `dune exec bench/main.exe -- fig7 fig9`
   runs just those two; no arguments runs everything.                   *)

module B = Sbt_workloads.Benchmarks
module Runner = Sbt_core.Runner
module Runtime = Sbt_core.Runtime
module D = Sbt_core.Dataplane
module Pipeline = Sbt_core.Pipeline
module P = Sbt_prim.Primitive
module U = Sbt_umem.Uarray
module Frame = Sbt_net.Frame
module Clock = Sbt_sim.Clock
module J = Sbt_obs.Json
module Bench_json = Sbt_obs.Bench_json

let scale = try Sys.getenv "SBT_BENCH_SCALE" with Not_found -> "quick"
let quick = scale <> "full"
let smoke = scale = "smoke"

(* Workload sizes: [quick] keeps the whole harness within a few minutes on
   one host core; [full] uses the paper's 1M-event windows; [smoke] is the
   CI sanity scale — seconds end to end, numbers meaningless. *)
let windows = if smoke then 2 else 4
let epw = if smoke then 10_000 else if quick then 200_000 else 1_000_000
let batch = if smoke then 2_000 else if quick then 20_000 else 100_000

let section name = Printf.printf "\n=== %s ===\n%!" name

let egress_key = Bytes.of_string "sbt-egress-key16"

(* ------------------------------------------------------------------ *)
(* Bechamel plumbing: run a group of tests briefly, return ns/run.     *)

let bechamel_run tests =
  let open Bechamel in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.6) ~kde:None () in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let raw = Benchmark.all cfg instances (Test.make_grouped ~name:"" ~fmt:"%s%s" tests) in
  let results =
    Analyze.all
      (Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| "run" |])
      Toolkit.Instance.monotonic_clock raw
  in
  Hashtbl.fold
    (fun name ols acc ->
      match Analyze.OLS.estimates ols with
      | Some [ est ] -> (name, est) :: acc
      | _ -> acc)
    results []
  |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Table 4: TCB analysis                                                *)

let table4 () =
  section "[table4] TCB analysis (paper Table 4 / 9.1)";
  Tcb_report.print ()

(* ------------------------------------------------------------------ *)
(* Crypto throughput: the TEE's per-batch primitives (ingress AES-CTR
   decrypt, frame HMAC, egress seal and audit MAC) over one buffer.      *)

let crypto () =
  section "[crypto] AES-128-CTR, SHA-256 and HMAC-SHA256 throughput";
  let mb = if smoke then 1 else 16 in
  let n = mb * 1024 * 1024 in
  let buf = Bytes.init n (fun i -> Char.unsafe_chr (i * 31 land 0xFF)) in
  let key = Bytes.of_string "sbt-ingress-k16!" in
  let ctr = Sbt_crypto.Ctr.create ~key ~nonce:1L in
  Printf.printf "  %d MB buffer, best of 3 runs\n" mb;
  List.iter
    (fun (name, f) ->
      let best =
        List.init 3 (fun _ ->
            let t0 = Clock.now_ns () in
            f ();
            Clock.elapsed_ns ~since:t0)
        |> List.fold_left Float.min Float.infinity
      in
      let mb_s = float_of_int mb /. (best /. 1e9) in
      ignore (Bench_json.append ~section:"crypto" [ ("op", J.Str name); ("mb_per_s", J.Num mb_s) ]);
      Printf.printf "  %-12s %8.1f MB/s\n%!" name mb_s)
    [
      ("aes-128-ctr", fun () -> Sbt_crypto.Ctr.xcrypt ctr ~pos:0L buf 0 n);
      ("sha256", fun () -> ignore (Sbt_crypto.Sha256.digest buf));
      ("hmac-sha256", fun () -> ignore (Sbt_crypto.Hmac.mac ~key buf));
    ];
  Printf.printf "  wrote %s\n" (Bench_json.path ~section:"crypto" ())

(* ------------------------------------------------------------------ *)
(* Figure 7: throughput and TEE memory, 6 benchmarks x 4 versions x
   {2,4,8} cores                                                        *)

type fig7_row = {
  bench : string;
  version : D.version;
  rates : (int * float) list; (* cores -> events/s *)
  mem_mb : float;
}

let fig7_rows : fig7_row list ref = ref []

let run_version (mk : ?windows:int -> ?events_per_window:int -> ?batch_events:int -> ?encrypted:bool -> unit -> B.t)
    version =
  let encrypted = match version with D.Full | D.Io_via_os -> true | D.Clear_ingress | D.Insecure -> false in
  let bench = mk ~windows ~events_per_window:epw ~batch_events:batch ~encrypted () in
  let o =
    Runner.run ~cores_list:[ 2; 4; 8 ] ~target_delay_ms:bench.B.target_delay_ms ~repeats:2
      (Runtime.Config.make ~version ()) bench.B.pipeline (B.frames bench)
  in
  if not o.Runner.verified then
    Printf.printf "  !! %s/%s failed verification\n" bench.B.name (D.version_name version);
  {
    bench = bench.B.name;
    version;
    rates = List.map (fun p -> (p.Runner.cores, p.Runner.events_per_sec)) o.Runner.points;
    mem_mb = o.Runner.mem_high_water_mb;
  }

let fig7 () =
  section "[fig7] throughput vs cores, 4 engine versions, TEE memory (paper Fig 7)";
  Printf.printf "  windows=%d events/window=%d batch=%d; targets per paper\n" windows epw batch;
  let versions = [ D.Full; D.Clear_ingress; D.Io_via_os; D.Insecure ] in
  List.iter
    (fun (name, mk) ->
      Printf.printf "  %s:\n%!" name;
      List.iter
        (fun version ->
          let row = run_version mk version in
          fig7_rows := row :: !fig7_rows;
          ignore
            (Bench_json.append ~section:"fig7"
               [
                 ("bench", J.Str row.bench);
                 ("version", J.Str (D.version_name row.version));
                 ( "events_per_sec",
                   J.Obj
                     (List.map
                        (fun (c, r) -> (string_of_int c, J.Num r))
                        row.rates) );
                 ("mem_high_water_mb", J.Num row.mem_mb);
               ]);
          Printf.printf "    %-16s" (D.version_name version);
          List.iter
            (fun (c, r) -> Printf.printf "  %dc=%6.2f Mev/s" c (r /. 1e6))
            row.rates;
          Printf.printf "  mem=%.0f MB\n%!" row.mem_mb)
        versions)
    [
      ("TopK (500ms)", B.topk);
      ("Distinct (200ms)", B.distinct);
      ("Join (250ms)", B.join);
      ("WinSum (20ms)", B.win_sum);
      ("Filter (10ms)", B.filter);
      ("Power (600ms)", B.power);
    ];
  (* Derived claims of 9.2/9.3. *)
  let rate8 bench version =
    List.find_map
      (fun r ->
        if r.bench = bench && r.version = version then List.assoc_opt 8 r.rates else None)
      !fig7_rows
    |> Option.value ~default:0.0
  in
  Printf.printf "\n  derived claims (8 cores):\n";
  Printf.printf "  %-10s %18s %18s %14s\n" "benchmark" "security overhead" "decrypt overhead" "trustedIO gain";
  List.iter
    (fun b ->
      let insecure = rate8 b D.Insecure in
      let clear = rate8 b D.Clear_ingress in
      let full = rate8 b D.Full in
      let viaos = rate8 b D.Io_via_os in
      let pct a bref = if bref <= 0.0 then 0.0 else 100.0 *. (bref -. a) /. bref in
      Printf.printf "  %-10s %17.1f%% %17.1f%% %13.1f%%\n" b (pct clear insecure) (pct full clear)
        (pct viaos full))
    [ "TopK"; "Distinct"; "Join"; "WinSum"; "Filter"; "Power" ];
  (* Mean across benchmarks: per-cell numbers carry +-10%% host noise. *)
  let mean f =
    let vals = List.map f [ "TopK"; "Distinct"; "Join"; "WinSum"; "Filter"; "Power" ] in
    List.fold_left ( +. ) 0.0 vals /. 6.0
  in
  let pct a bref = if bref <= 0.0 then 0.0 else 100.0 *. (bref -. a) /. bref in
  Printf.printf "  %-10s %17.1f%% %17.1f%% %13.1f%%\n" "mean"
    (mean (fun b -> pct (rate8 b D.Clear_ingress) (rate8 b D.Insecure)))
    (mean (fun b -> pct (rate8 b D.Full) (rate8 b D.Clear_ingress)))
    (mean (fun b -> pct (rate8 b D.Io_via_os) (rate8 b D.Full)));
  Printf.printf "  (paper: security < 25%%; decrypt 4-35%%; trusted IO saves up to 20%%)\n";
  Printf.printf "  wrote %s\n" (Bench_json.path ~section:"fig7" ())

(* ------------------------------------------------------------------ *)
(* Figure 8: vs commodity insecure engines on WinSum                     *)

let fig8 () =
  section "[fig8] vs commodity engines, WinSum, 50ms target (paper Fig 8)";
  let bench = B.win_sum ~windows ~events_per_window:epw ~batch_events:batch () in
  let frames = B.frames bench in
  let bytes_per_event = 12.0 in
  let sbt =
    Runner.run ~cores_list:[ 8 ] ~target_delay_ms:50.0 (Runtime.Config.make ()) bench.B.pipeline
      (B.frames (B.win_sum ~windows ~events_per_window:epw ~batch_events:batch ~encrypted:true ()))
  in
  let sbt_rate = (List.hd sbt.Runner.points).Runner.events_per_sec in
  Printf.printf "  %-16s %10.1f MB/s (secure, 8 modeled cores)\n" "StreamBox-TZ"
    (sbt_rate *. bytes_per_event /. 1e6);
  List.iter
    (fun flavor ->
      let r = Sbt_baselines.Hash_engine.run_win_sum flavor ~window_ticks:1000 frames in
      let rate = float_of_int r.Sbt_baselines.Hash_engine.events /. (r.Sbt_baselines.Hash_engine.elapsed_ns /. 1e9) in
      Printf.printf "  %-16s %10.1f MB/s (insecure, hash-based, measured)\n"
        (Sbt_baselines.Hash_engine.flavor_name flavor)
        (rate *. bytes_per_event /. 1e6))
    [ Sbt_baselines.Hash_engine.Flink_like; Sbt_baselines.Hash_engine.Esper_like;
      Sbt_baselines.Hash_engine.Sensorbee_like ];
  let ss = Sbt_baselines.Secure_streams.run_win_sum ~window_ticks:1000 frames in
  let ss_rate =
    float_of_int ss.Sbt_baselines.Secure_streams.events
    /. (ss.Sbt_baselines.Secure_streams.elapsed_ns /. 1e9)
  in
  Printf.printf "  %-16s %10.1f MB/s (secure, per-operator enclaves, measured; %d hops)\n"
    "SecureStreams*" (ss_rate *. bytes_per_event /. 1e6) ss.Sbt_baselines.Secure_streams.hops;
  Printf.printf "  (paper: SBT at least one order of magnitude above the commodity engines)\n"

(* ------------------------------------------------------------------ *)
(* Figure 9: GroupBy run-time breakdown vs input batch size              *)

(* The paper's setup: the control plane runs 8 workers executing GroupBy
   on one input batch - sub-sorts in parallel, then merge + aggregate.
   We reproduce it against the data plane and read the cost categories
   from its accounting. *)
let fig9_one_batch events =
  let dp = D.create (D.Config.make ~version:D.Full ()) in
  D.set_ingest_width dp 3;
  let rng = Sbt_crypto.Rng.create ~seed:99L in
  (* Timestamps spread over 8 "lanes" so Segment yields 8 sub-batches. *)
  let lane = max 1 (events / 8) in
  let records =
    Array.init events (fun i ->
        [|
          Int32.of_int (Sbt_crypto.Rng.int_below rng 10_000);
          Sbt_crypto.Rng.int32_any rng;
          Int32.of_int (i / lane);
        |])
  in
  let payload = Frame.pack_events ~width:3 records in
  let batch_ref =
    match
      D.call dp
        (D.R_ingest_events
           { payload; encrypted = false; stream = 0; seq = 0; mac = Bytes.empty; windowing = None })
    with
    | D.Rs_ingested { outs = [ out ]; _ } -> out.D.ref_
    | _ -> failwith "ingest"
  in
  (* The paper profiles the GroupBy *operator*: exclude ingestion. *)
  let s0 = D.stats dp in
  let outs =
    match
      D.call dp
        (D.R_invoke
           {
             chain = [ (P.Segment, [ D.P_window_size 1; D.P_ts_field 2 ]) ];
             inputs = [ batch_ref ];
             trigger = None;
             hints = [];
             retire_inputs = true;
           })
    with
    | D.Rs_outputs outs -> List.map (fun (o : D.output) -> o.D.ref_) outs
    | _ -> failwith "segment"
  in
  let sorted =
    List.map
      (fun r ->
        match
          D.call dp
            (D.R_invoke
               {
                 chain = [ (P.Sort, [ D.P_key_field 0 ]) ];
                 inputs = [ r ];
                 trigger = None;
                 hints = [];
                 retire_inputs = true;
               })
        with
        | D.Rs_outputs [ o ] -> o.D.ref_
        | _ -> failwith "sort")
      outs
  in
  let merged =
    match
      D.call dp
        (D.R_invoke
           {
             chain = [ (P.Kway_merge, [ D.P_key_field 0 ]) ];
             inputs = sorted;
             trigger = None;
             hints = [];
             retire_inputs = true;
           })
    with
    | D.Rs_outputs [ o ] -> o.D.ref_
    | _ -> failwith "merge"
  in
  (match
     D.call dp
       (D.R_invoke
          {
            chain = [ (P.Sum_per_key, [ D.P_key_field 0; D.P_value_field 1 ]) ];
            inputs = [ merged ];
            trigger = None;
            hints = [];
            retire_inputs = true;
          })
   with
  | D.Rs_outputs [ _ ] -> ()
  | _ -> failwith "agg");
  let s1 = D.stats dp in
  {
    s1 with
    D.compute_ns = s1.D.compute_ns -. s0.D.compute_ns;
    mem_ns = s1.D.mem_ns -. s0.D.mem_ns;
    ingest_ns = 0.0;
    modeled_switch_ns = s1.D.modeled_switch_ns -. s0.D.modeled_switch_ns;
    switch_pairs = s1.D.switch_pairs - s0.D.switch_pairs;
  }

let fig9 () =
  section "[fig9] GroupBy run-time breakdown vs input batch size (paper Fig 9)";
  Printf.printf "  8 parallel sub-sorts per batch; compute measured, switches modeled (%.0f us/pair)\n"
    (Sbt_tz.Cost_model.default.Sbt_tz.Cost_model.world_switch_ns /. 1e3);
  Printf.printf "  %10s %10s %10s %10s %8s\n" "batch" "compute%" "switch%" "mem%" "pairs";
  List.iter
    (fun events ->
      (* Three runs; measured alloc/compute time is host-noisy, so report
         the min (least noise) and the median (typical) rather than a
         mean an outlier run can drag around. *)
      let runs = List.init 3 (fun _ -> fig9_one_batch events) in
      let total (x : D.stats) = x.D.compute_ns +. x.D.mem_ns in
      let sorted = List.sort (fun a b -> compare (total a) (total b)) runs in
      let pcts (s : D.stats) =
        let compute = s.D.compute_ns +. s.D.ingest_ns in
        let switch = s.D.modeled_switch_ns in
        let mem = s.D.mem_ns in
        let total = compute +. switch +. mem in
        ( 100.0 *. compute /. total,
          100.0 *. switch /. total,
          100.0 *. mem /. total )
      in
      let s = List.nth sorted 0 in
      let compute_pct, switch_pct, mem_pct = pcts s in
      let compute_med, switch_med, mem_med = pcts (List.nth sorted 1) in
      ignore
        (Bench_json.append ~section:"fig9"
           [
             ("batch_events", J.num_of_int events);
             ("compute_pct", J.Num compute_pct);
             ("switch_pct", J.Num switch_pct);
             ("mem_pct", J.Num mem_pct);
             ("compute_pct_median", J.Num compute_med);
             ("switch_pct_median", J.Num switch_med);
             ("mem_pct_median", J.Num mem_med);
             ("switch_pairs", J.num_of_int s.D.switch_pairs);
           ]);
      Printf.printf "  %10d %9.1f%% %9.1f%% %9.1f%% %8d   (median compute %.1f%%)\n" events
        compute_pct switch_pct mem_pct s.D.switch_pairs compute_med)
    [ 8_000; 32_000; 128_000; 512_000; 1_000_000 ];
  Printf.printf "  (paper: >=128K events/batch -> >90%% compute; 8K -> world switch dominates)\n";
  Printf.printf "  wrote %s\n" (Bench_json.path ~section:"fig9" ())

(* ------------------------------------------------------------------ *)
(* Figure 10: hint-guided memory placement ablation                      *)

let fig10_one (mk : ?windows:int -> ?events_per_window:int -> ?batch_events:int -> ?encrypted:bool -> unit -> B.t) hints =
  let bench = mk ~windows ~events_per_window:epw ~batch_events:batch () in
  let alloc_mode =
    if hints then Sbt_umem.Allocator.Hint_guided else Sbt_umem.Allocator.Producer_grouping
  in
  let cfg = Runtime.Config.make ~cores:8 ~alloc_mode ~hints_enabled:hints () in
  let r =
    Sbt_core.Session.create ~verify:false cfg
    |> Sbt_core.Session.add_tenant ~pipeline:bench.B.pipeline ~source:(B.frames bench)
    |> Sbt_core.Session.run_single
  in
  let samples = List.map float_of_int r.Runtime.mem_samples_bytes in
  let n = float_of_int (max 1 (List.length samples)) in
  let mean = List.fold_left ( +. ) 0.0 samples /. n in
  let var = List.fold_left (fun a s -> a +. ((s -. mean) ** 2.0)) 0.0 samples /. n in
  (mean /. 1e6, 2.0 *. sqrt var /. 1e6, float_of_int r.Runtime.pool_high_water_bytes /. 1e6)

let fig10 () =
  section "[fig10] TEE memory with vs without consumption hints (paper Fig 10)";
  Printf.printf "  %-8s %20s %20s %9s\n" "bench" "with hints (MB+-2s)" "w/o hints (MB+-2s)" "increase";
  List.iter
    (fun (name, mk) ->
      let wm, ws, whi = fig10_one mk true in
      let nm, ns, nhi = fig10_one mk false in
      Printf.printf "  %-8s %12.1f +- %4.1f %13.1f +- %4.1f %8.0f%%  (peaks %.0f / %.0f)\n" name wm ws nm
        ns
        (100.0 *. (nhi -. whi) /. Float.max 0.001 whi)
        whi nhi)
    [ ("Filter", B.filter); ("WinSum", B.win_sum); ("TopK", B.topk) ];
  Printf.printf "  (paper: the hint-less allocator uses up to 35%% more TEE memory)\n"

(* ------------------------------------------------------------------ *)
(* Figure 11: uArray on-demand growth vs std::vector                     *)

let fig11_merge_uarray n_bufs buf_ints =
  let pool = Sbt_umem.Page_pool.create ~budget_bytes:(1 lsl 30) in
  let rng = Sbt_crypto.Rng.create ~seed:5L in
  let mk_sorted id =
    let ua = U.create ~id ~pool ~width:1 ~capacity:buf_ints () in
    let first = U.reserve ua buf_ints in
    let buf = U.raw ua in
    for i = first to buf_ints - 1 do
      Bigarray.Array1.unsafe_set buf i (Sbt_crypto.Rng.int32_any rng)
    done;
    Sbt_prim.Sort.sort_in_place Sbt_prim.Sort.Radix ua ~key_field:0;
    U.produce ua;
    ua
  in
  let bufs = ref (List.init n_bufs mk_sorted) in
  let id = ref n_bufs in
  let t0 = Clock.now_ns () in
  while List.length !bufs > 1 do
    let rec pairs acc = function
      | a :: b :: rest ->
          let dst =
            U.create ~id:!id ~pool ~width:1 ~capacity:(U.length a + U.length b) ()
          in
          incr id;
          Sbt_prim.Merge.merge2 ~a ~b ~dst ~key_field:0;
          U.produce dst;
          U.retire a;
          U.release_pages a;
          U.retire b;
          U.release_pages b;
          pairs (dst :: acc) rest
      | [ last ] -> List.rev (last :: acc)
      | [] -> List.rev acc
    in
    bufs := pairs [] !bufs
  done;
  let dt = Clock.elapsed_ns ~since:t0 in
  (match !bufs with
  | [ final ] ->
      U.retire final;
      U.release_pages final
  | _ -> assert false);
  dt

let fig11_merge_vector n_bufs buf_ints =
  let module V = Sbt_baselines.Growable_vector in
  let pool = Sbt_umem.Page_pool.create ~budget_bytes:(1 lsl 30) in
  let rng = Sbt_crypto.Rng.create ~seed:5L in
  let mk_sorted () =
    (* Vectors grow from small capacity, relocating as they go - exactly
       std::vector's behaviour in the paper's microbenchmark. *)
    let v = V.create ~pool ~width:1 () in
    for _ = 1 to buf_ints do
      V.append v [| Sbt_crypto.Rng.int32_any rng |]
    done;
    let keys = Array.init (V.length v) (fun i -> V.get_field v i 0) in
    Array.sort compare keys;
    Array.iteri (fun i k -> V.set_field v i 0 k) keys;
    v
  in
  let bufs = ref (List.init n_bufs (fun _ -> mk_sorted ())) in
  let t0 = Clock.now_ns () in
  while List.length !bufs > 1 do
    let rec pairs acc = function
      | a :: b :: rest ->
          (* Merge into a *fresh small vector* that doubles as it grows:
             the relocation cost under test. *)
          let dst = V.create ~pool ~width:1 () in
          let na = V.length a and nb = V.length b in
          let i = ref 0 and j = ref 0 in
          while !i < na && !j < nb do
            if V.get_field a !i 0 <= V.get_field b !j 0 then begin
              V.append dst [| V.get_field a !i 0 |];
              incr i
            end
            else begin
              V.append dst [| V.get_field b !j 0 |];
              incr j
            end
          done;
          while !i < na do
            V.append dst [| V.get_field a !i 0 |];
            incr i
          done;
          while !j < nb do
            V.append dst [| V.get_field b !j 0 |];
            incr j
          done;
          V.free a;
          V.free b;
          pairs (dst :: acc) rest
      | [ last ] -> List.rev (last :: acc)
      | [] -> List.rev acc
    in
    bufs := pairs [] !bufs
  done;
  let dt = Clock.elapsed_ns ~since:t0 in
  List.iter V.free !bufs;
  dt

let fig11 () =
  section "[fig11] uArray on-demand growth vs std::vector, N-way merge (paper Fig 11)";
  let n_bufs = if quick then 64 else 128 in
  let buf_ints = if quick then 32_768 else 131_072 in
  let ua = fig11_merge_uarray n_bufs buf_ints in
  let vec = fig11_merge_vector n_bufs buf_ints in
  Printf.printf "  %d-way merge of %d-int buffers:\n" n_bufs buf_ints;
  Printf.printf "  uArray      %8.1f ms\n" (ua /. 1e6);
  Printf.printf "  std::vector %8.1f ms  (%.1fx slower)\n" (vec /. 1e6) (vec /. ua);
  Printf.printf "  (paper: uArray 4x faster than std::vector)\n"

(* ------------------------------------------------------------------ *)
(* Figure 12: audit-record compression                                   *)

let fig12_one (mk : ?windows:int -> ?events_per_window:int -> ?batch_events:int -> ?encrypted:bool -> unit -> B.t) batch_events =
  let bench = mk ~windows ~events_per_window:epw ~batch_events () in
  let cfg = Runtime.Config.make () in
  let r =
    Sbt_core.Session.create ~verify:false cfg
    |> Sbt_core.Session.add_tenant ~pipeline:bench.B.pipeline ~source:(B.frames bench)
    |> Sbt_core.Session.run_single
  in
  let records =
    List.concat_map (fun b -> Sbt_attest.Log.open_batch ~key:egress_key b) r.Runtime.audit
  in
  let raw = Sbt_attest.Columnar.raw_size records in
  let compressed = Bytes.length (Sbt_attest.Columnar.compress records) in
  let lzss = Bytes.length (Sbt_baselines.Lzss.compress (Sbt_attest.Record.encode_all records)) in
  let seconds = float_of_int windows (* one window = one second of event time *) in
  (List.length records, float_of_int raw /. seconds, float_of_int compressed /. seconds,
   float_of_int lzss /. seconds)

let fig12 () =
  section "[fig12] columnar compression of audit records (paper Fig 12)";
  Printf.printf "  %-8s %10s %10s %12s %12s %8s %10s\n" "bench" "batch" "records" "raw KB/s"
    "columnar" "ratio" "vs gzip*";
  List.iter
    (fun (name, mk) ->
      List.iter
        (fun be ->
          let n, raw, comp, lzss = fig12_one mk be in
          Printf.printf "  %-8s %10d %10d %12.2f %12.2f %7.1fx %9.2fx\n" name be n (raw /. 1e3)
            (comp /. 1e3) (raw /. comp) (lzss /. comp))
        [ 10_000; 100_000 ])
    [ ("WinSum", B.win_sum); ("Power", B.power) ];
  Printf.printf "  (*gzip modeled by LZSS+Huffman; paper: 5-6.7x ratios, 1.9x better than gzip)\n"

(* ------------------------------------------------------------------ *)
(* 9.3 sort ablation: vectorized-model vs std::sort vs qsort             *)

let sort_ablation () =
  section "[sort-ablation] Sort implementations under GroupBy (paper 9.3)";
  let n = if quick then 200_000 else 1_000_000 in
  let pool = Sbt_umem.Page_pool.create ~budget_bytes:(1 lsl 30) in
  let rng = Sbt_crypto.Rng.create ~seed:3L in
  let src = U.create ~id:0 ~pool ~width:3 ~capacity:n () in
  let first = U.reserve src n in
  let buf = U.raw src in
  for i = first to (n * 3) - 1 do
    Bigarray.Array1.unsafe_set buf i (Sbt_crypto.Rng.int32_any rng)
  done;
  U.produce src;
  let bench_algo algo =
    Bechamel.Test.make ~name:(match algo with Sbt_prim.Sort.Radix -> "radix(neon-model)" | Sbt_prim.Sort.Std -> "std::sort-model" | Sbt_prim.Sort.Qsort -> "qsort-model")
      (Bechamel.Staged.stage (fun () ->
           let dst = U.create ~id:1 ~pool ~width:3 ~capacity:n () in
           Sbt_prim.Sort.sort algo ~src ~dst ~key_field:0;
           U.retire dst;
           U.release_pages dst))
  in
  let results = bechamel_run [ bench_algo Sbt_prim.Sort.Radix; bench_algo Sbt_prim.Sort.Std; bench_algo Sbt_prim.Sort.Qsort ] in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
    at 0
  in
  let radix = ref 0.0 in
  List.iter (fun (name, est) -> if contains name "radix" then radix := est) results;
  let radix = if !radix > 0.0 then !radix else 1.0 in
  List.iter
    (fun (name, est) ->
      Printf.printf "  %-20s %10.1f ms/sort (%.1fx vs radix)\n" name (est /. 1e6) (est /. radix))
    results;
  Printf.printf "  (paper: GroupBy drops 7x with qsort, 2x with std::sort vs the vectorized sort)\n"

(* ------------------------------------------------------------------ *)
(* Record-moving kernels at edgebench's shapes                           *)

(* ns per record for the kernels that move records - the ingest call,
   Segment, Sort and KwayMerge - on real batches at the shapes edgebench
   runs them.  Datagen flushes every stream at each window boundary, so a
   window's KwayMerge takes that window's batches of one stream:
   grid-clear merges three width-4 batches of 20K records, taxi-enc two
   width-3 batches of 5K; join-egress sends one 15K-record batch per
   stream and window, so its merges take one input each (a blit) and it
   has no KwayMerge row; fps-small runs no sort or merge.  taxi-enc's
   ingest decrypts, which the crypto section times, so it has no ingest
   row.  Each row keeps the best of [reps] calls, each into fresh
   destinations made outside the timed region. *)
let kernels () =
  section "[kernels] record moves per kernel at edgebench's shapes";
  let reps = if smoke then 20 else 300 in
  let pool = Sbt_umem.Page_pool.create ~budget_bytes:(1 lsl 30) in
  let next_id = ref 0 in
  let fresh ~width capacity =
    incr next_id;
    U.create ~id:!next_id ~pool ~width ~capacity ()
  in
  let best ~setup ~free run =
    let t = ref Float.infinity in
    for i = 1 to reps do
      let x = setup i in
      let t0 = Clock.now_ns () in
      let y = run x in
      t := Float.min !t (Clock.elapsed_ns ~since:t0);
      free x y
    done;
    !t
  in
  let free_ua ua () = U.retire ua; U.release_pages ua in
  Printf.printf "  best of %d calls, fresh destinations\n" reps;
  Printf.printf "  %-12s %-10s %5s %8s %10s\n" "workload" "kernel" "width" "records" "ns/record";
  let row workload kernel width records ns =
    let per = ns /. float_of_int records in
    ignore
      (Bench_json.append ~section:"kernels"
         [
           ("workload", J.Str workload);
           ("kernel", J.Str kernel);
           ("width", J.num_of_int width);
           ("records", J.num_of_int records);
           ("ns_per_record", J.Num per);
         ]);
    Printf.printf "  %-12s %-10s %5d %8d %10.2f\n%!" workload kernel width records per
  in
  List.iter
    (fun (workload, (bench : B.t), timed) ->
      let p = bench.B.pipeline in
      let schema = p.Pipeline.schema in
      let width = schema.Sbt_core.Event.width and kf = schema.Sbt_core.Event.key_field in
      let payloads =
        List.filter_map (function Frame.Events { payload; _ } -> Some payload | _ -> None)
          (B.frames bench)
      in
      let load payload =
        let rows = Frame.unpack_events ~width payload in
        let ua = fresh ~width (Array.length rows) in
        Array.iter (U.append ua) rows;
        U.produce ua;
        ua
      in
      let batch = load (List.hd payloads) in
      let n = U.length batch in
      let size = p.Pipeline.window_size_ticks and slide = p.Pipeline.window_slide_ticks in
      let ts_field = schema.Sbt_core.Event.ts_field in
      List.iter
        (function
          | `Ingest ->
              (* The ingest call unpacks into a pool uArray, retired untimed. *)
              let dp = D.create (D.Config.make ~version:D.Clear_ingress ()) in
              D.set_ingest_width dp width;
              let payload = List.hd payloads in
              row workload "ingest" width n
                (best
                   ~setup:(fun seq ->
                     D.R_ingest_events
                       { payload; encrypted = false; stream = 0; seq; mac = Bytes.empty; windowing = None })
                   ~free:(fun _ input -> ignore (D.call dp (D.R_retire { input })))
                   (fun req ->
                     match D.call dp req with
                     | D.Rs_ingested { outs = [ o ]; _ } -> o.D.ref_
                     | _ -> failwith "kernels: ingest"))
          | `Segment ->
              row workload "Segment" width n
                (best
                   ~setup:(fun _ ->
                     List.map
                       (fun (win, c) -> (win, fresh ~width c))
                       (Sbt_prim.Segment.count_per_window ~src:batch ~ts_field ~window_size:size
                          ~slide ()))
                   ~free:(fun dsts () -> List.iter (fun (_, d) -> free_ua d ()) dsts)
                   (fun dsts ->
                     Sbt_prim.Segment.segment ~src:batch ~ts_field ~window_size:size ~slide
                       ~dst_for_window:(fun win -> List.assoc win dsts) ()))
          | `Sort ->
              row workload "Sort" width n
                (best ~setup:(fun _ -> fresh ~width n) ~free:free_ua (fun dst ->
                     Sbt_prim.Sort.sort Sbt_prim.Sort.Radix ~src:batch ~dst ~key_field:kf))
          | `Kway merged ->
              let inputs =
                List.map
                  (fun payload ->
                    let src = load payload in
                    let dst = fresh ~width (U.length src) in
                    Sbt_prim.Sort.sort Sbt_prim.Sort.Radix ~src ~dst ~key_field:kf;
                    U.produce dst;
                    dst)
                  (List.filteri (fun i _ -> i < merged) payloads)
              in
              let total = List.fold_left (fun a ua -> a + U.length ua) 0 inputs in
              row workload "KwayMerge" width total
                (best ~setup:(fun _ -> fresh ~width total) ~free:free_ua (fun dst ->
                     Sbt_prim.Merge.kway ~inputs ~dst ~key_field:kf)))
        timed)
    [
      ( "grid-clear",
        B.power ~windows:1 ~events_per_window:60_000 ~batch_events:20_000 (),
        [ `Ingest; `Segment; `Sort; `Kway 3 ] );
      ( "join-egress",
        B.join ~windows:1 ~events_per_window:30_000 ~batch_events:15_000 (),
        [ `Ingest; `Segment; `Sort ] );
      ( "taxi-enc",
        B.distinct ~windows:1 ~events_per_window:10_000 ~batch_events:5_000 (),
        [ `Segment; `Sort; `Kway 2 ] );
      ( "fps-small",
        B.fps ~windows:1 ~events_per_window:64 ~batch_events:64 (),
        [ `Ingest; `Segment ] );
    ];
  Printf.printf "  wrote %s\n" (Bench_json.path ~section:"kernels" ())

(* ------------------------------------------------------------------ *)
(* Ablation: input batch size (paper 8: "a key parameter of SBT")        *)

let batch_sweep () =
  section "[batch-sweep] input batch size ablation (paper 8)";
  Printf.printf "  TopK, 8 modeled cores, paper target; batch size trades TEE-crossing rate\n";
  Printf.printf "  against per-primitive delay and audit volume (paper picks 100K):\n";
  Printf.printf "  %10s %12s %12s %14s\n" "batch" "Mev/s (8c)" "delay ms" "audit recs";
  List.iter
    (fun be ->
      let bench = B.topk ~windows ~events_per_window:epw ~batch_events:be () in
      let o =
        Runner.run ~cores_list:[ 8 ] ~target_delay_ms:bench.B.target_delay_ms ~repeats:2
          (Runtime.Config.make ~version:D.Clear_ingress ()) bench.B.pipeline (B.frames bench)
      in
      let p = List.hd o.Runner.points in
      Printf.printf "  %10d %12.2f %12.1f %14d\n" be
        (p.Runner.events_per_sec /. 1e6)
        p.Runner.delay_ms o.Runner.audit_records)
    [ 2_000; 10_000; 20_000; 50_000; 100_000 ]

(* ------------------------------------------------------------------ *)
(* Ablation: world-switch cost sensitivity (9.2's OP-TEE observation)    *)

let switch_sweep () =
  section "[switch-sweep] throughput vs world-switch cost (paper 9.2)";
  Printf.printf
    "  the paper: 'most of the world switch overhead comes from OP-TEE ...\n";
  Printf.printf "  suggesting room for OP-TEE optimization'. TopK, 8 modeled cores,\n";
  Printf.printf "  each cell the cheapest of 5 recordings of the same frames:\n";
  Printf.printf "  %14s %12s %8s\n" "switch us/pair" "Mev/s (8c)" "pairs";
  let bench = B.topk ~windows ~events_per_window:epw ~batch_events:batch () in
  let frames = B.frames bench in
  List.iter
    (fun switch_us ->
      let cost =
        Sbt_tz.Cost_model.with_switch_ns (switch_us *. 1e3) Sbt_tz.Cost_model.default
      in
      let cfg = Runtime.Config.make ~version:D.Clear_ingress ~cores:8 ~cost () in
      let o =
        Runner.run ~cores_list:[ 8 ] ~target_delay_ms:bench.B.target_delay_ms ~repeats:5 cfg
          bench.B.pipeline frames
      in
      let p = List.hd o.Runner.points in
      Printf.printf "  %14.0f %12.2f %8d\n" switch_us (p.Runner.events_per_sec /. 1e6)
        o.Runner.dp_stats.D.switch_pairs)
    [ 0.0; 25.0; 100.0; 400.0 ]

(* ------------------------------------------------------------------ *)
(* Attestation overhead (9.2)                                            *)

(* The audit path as the engine runs it, stage by stage, on fps-shaped
   streams (five per-record stages on 64-event batches: the most audit
   records per event of the benchmarks).  In the TEE, [Log.flush]
   compresses and MACs each uploaded batch; in the cloud, [Log.open_batch]
   opens each batch and [Verifier.verify] replays the whole stream.  Each
   stage keeps the best of [reps] timings, and the re-flushed batches must
   equal the uploaded ones. *)
let attest_overhead () =
  section "[attest-overhead] audit compress, open and verify per record (paper 9.2)";
  let module Log = Sbt_attest.Log in
  let epw = if smoke then 1_000 else 8_000 and reps = if smoke then 3 else 10 in
  Printf.printf "  fps, %d events per window, 64-event batches; best of %d runs per stage\n" epw
    reps;
  Printf.printf "  %7s %7s %7s  %-14s %12s %9s\n" "windows" "records" "batches" "stage" "records/s"
    "us/record";
  List.iter
    (fun windows ->
      let bench = B.fps ~windows ~events_per_window:epw ~batch_events:64 () in
      let cfg = Runtime.Config.make ~version:D.Clear_ingress ~deterministic:true () in
      let key = cfg.Runtime.dp_config.D.egress_key in
      let t0 = Clock.now_ns () in
      let r = Runtime.run cfg bench.B.pipeline (B.frames bench) in
      let run_ns = Clock.elapsed_ns ~since:t0 in
      let batches = r.Runtime.audit in
      let per_batch = List.map (Log.open_batch ~key) batches in
      let records = List.concat per_batch in
      let n = List.length records in
      let best f =
        let t = ref Float.infinity in
        for _ = 1 to reps do
          let t0 = Clock.now_ns () in
          ignore (Sys.opaque_identity (f ()));
          t := Float.min !t (Clock.elapsed_ns ~since:t0)
        done;
        !t
      in
      let seal () =
        let log = Log.create ~key ~flush_every:max_int in
        List.map
          (fun rs ->
            List.iter (fun x -> ignore (Log.append log x)) rs;
            Option.get (Log.flush log))
          per_batch
      in
      if seal () <> batches then failwith "attest-overhead: re-flushed batches differ";
      if not (Sbt_attest.Verifier.ok (Sbt_attest.Verifier.verify r.Runtime.verifier_spec records))
      then failwith "attest-overhead: verdict not clean";
      let seal_ns = best seal in
      List.iter
        (fun (stage, ns) ->
          Printf.printf "  %7d %7d %7d  %-14s %12.0f %9.2f\n" windows n (List.length batches) stage
            (float_of_int n /. (ns /. 1e9))
            (ns /. 1e3 /. float_of_int n))
        [
          ("compress + MAC", seal_ns);
          ("open_batch", best (fun () -> List.map (Log.open_batch ~key) batches));
          ("verify", best (fun () -> Sbt_attest.Verifier.verify r.Runtime.verifier_spec records));
        ];
      Printf.printf "  %7d compress + MAC is %.2f%% of the edge run (%.1f ms)\n" windows
        (100.0 *. seal_ns /. run_ns) (run_ns /. 1e6))
    [ 16; 256 ];
  Printf.printf "  (paper: 300-400 records/s produced per engine; 57K records/s replayed)\n"

(* ------------------------------------------------------------------ *)
(* Opaque-reference validation microbench (9 / 8)                        *)

let opaque_refs () =
  section "[opaque-refs] opaque reference validation cost (paper 8)";
  let mk n =
    let rng = Sbt_crypto.Rng.create ~seed:1L in
    let t = Sbt_core.Opaque.create ~rng in
    let pool = Sbt_umem.Page_pool.create ~budget_bytes:(1 lsl 24) in
    let refs =
      List.init n (fun i ->
          Sbt_core.Opaque.register t (U.create ~id:i ~pool ~width:1 ~capacity:1 ()))
    in
    (t, Array.of_list refs)
  in
  let tests =
    List.map
      (fun n ->
        let t, refs = mk n in
        let i = ref 0 in
        Bechamel.Test.make
          ~name:(Printf.sprintf "resolve@%d" n)
          (Bechamel.Staged.stage (fun () ->
               i := (!i + 1) land (Array.length refs - 1);
               ignore (Sbt_core.Opaque.resolve t refs.(!i)))))
      [ 64; 1024; 4096 ]
  in
  List.iter
    (fun (name, est) -> Printf.printf "  %-16s %8.1f ns/lookup\n" name est)
    (bechamel_run tests);
  Printf.printf "  (paper: live references stay in the few thousands; validation is minor)\n"

(* ------------------------------------------------------------------ *)
(* Resilience: goodput and verification under injected faults            *)

let resilience () =
  section "[resilience] goodput / attested loss vs fault rate (WinSum, seeded faults)";
  let module Fault = Sbt_fault.Fault in
  let bench = B.win_sum ~windows ~events_per_window:(epw / 4) ~batch_events:(batch / 4) () in
  let spec = { bench.B.spec with Sbt_workloads.Datagen.authenticated = true } in
  let generated = Sbt_workloads.Datagen.total_events spec in
  let clean_frames = Sbt_workloads.Datagen.frames spec in
  Printf.printf "  %-6s %-9s %-6s %-6s %-6s %-10s %s\n" "rate" "goodput" "gaps" "shed" "busy"
    "loss-frac" "violations";
  List.iter
    (fun rate ->
      let plan = Fault.uniform ~seed:7L ~rate () in
      let frames, _ = Sbt_net.Lossy.apply plan clean_frames in
      let o =
        Runner.run ~cores_list:[ 4 ] (Runtime.Config.make ~cores:4 ~fault_plan:plan ())
          bench.B.pipeline frames
      in
      let rep = o.Runner.verifier_report in
      let loss = o.Runner.loss in
      let goodput =
        float_of_int (o.Runner.total_events - Runtime.Loss.events_dropped loss)
        /. float_of_int (max 1 generated)
      in
      ignore
        (Bench_json.append ~section:"resilience"
           [
             ("fault_rate", J.Num rate);
             ("goodput", J.Num goodput);
             ("gaps_declared", J.num_of_int (Runtime.Loss.gaps_declared loss));
             ("sheds", J.num_of_int o.Runner.dp_stats.D.sheds);
             ("smc_busy", J.num_of_int o.Runner.dp_stats.D.smc_busy_rejections);
             ("loss_fraction", J.Num rep.Sbt_attest.Verifier.loss_fraction);
             ("violations", J.num_of_int (List.length rep.Sbt_attest.Verifier.violations));
             ("control_metrics", Sbt_obs.Metrics.to_json o.Runner.registry);
           ]);
      Printf.printf "  %-6.2f %-9.3f %-6d %-6d %-6d %-10.3f %d\n" rate goodput
        (Runtime.Loss.gaps_declared loss)
        o.Runner.dp_stats.D.sheds o.Runner.dp_stats.D.smc_busy_rejections
        rep.Sbt_attest.Verifier.loss_fraction
        (List.length rep.Sbt_attest.Verifier.violations))
    [ 0.0; 0.02; 0.05; 0.1; 0.2 ];
  Printf.printf
    "  (declared gaps verify as degradation, never violations; undeclared loss would violate)\n";
  Printf.printf "  wrote %s\n" (Bench_json.path ~section:"resilience" ())

(* ------------------------------------------------------------------ *)
(* Crash recovery: checkpoint cost, replay volume, recovery latency      *)

let recovery_bench () =
  section "[recovery] sealed checkpoints, crash replay, exactly-once stitch (WinSum)";
  let module Fault = Sbt_fault.Fault in
  let bench = B.win_sum ~windows ~events_per_window:(epw / 4) ~batch_events:(batch / 4) () in
  let frames = B.frames bench in
  let observables (s : Runtime.supervised) =
    ( s.Runtime.sv_results,
      List.map
        (fun (b : Sbt_attest.Log.batch) -> (b.Sbt_attest.Log.seq, b.Sbt_attest.Log.payload))
        s.Runtime.sv_audit )
  in
  (* Baseline: the same frames, no supervisor, no checkpoints. *)
  let t0 = Clock.now_ns () in
  let plain =
    Runtime.run (Runtime.Config.make ~cores:4 ~deterministic:true ()) bench.B.pipeline frames
  in
  let plain_wall = Clock.elapsed_ns ~since:t0 /. 1e9 in
  let crash_after = max 1 (plain.Runtime.tasks_executed / 2) in
  Printf.printf "  baseline: %d tasks, %d frames; crash injected after %d tasks\n"
    plain.Runtime.tasks_executed (List.length frames) crash_after;
  Printf.printf "  %-10s %-7s %-9s %-9s %-9s %-10s %-9s %s\n" "ckpt-every" "ckpts" "sealedB"
    "ckpt-ms" "replayed" "recov-ms" "identical" "verified";
  List.iter
    (fun every ->
      let clean_cfg = Runtime.Config.make ~cores:4 ~deterministic:true () in
      let t1 = Clock.now_ns () in
      let clean = Runtime.run_supervised ~ckpt_every:every clean_cfg bench.B.pipeline frames in
      let clean_wall = Clock.elapsed_ns ~since:t1 /. 1e9 in
      let plan = Fault.with_crash Fault.none ~site:Fault.Crash_control ~after_tasks:crash_after in
      let crash_cfg = Runtime.Config.make ~cores:4 ~deterministic:true ~fault_plan:plan () in
      let t2 = Clock.now_ns () in
      let crashed = Runtime.run_supervised ~ckpt_every:every crash_cfg bench.B.pipeline frames in
      let crash_wall = Clock.elapsed_ns ~since:t2 /. 1e9 in
      let identical = observables clean = observables crashed in
      let verified =
        Sbt_attest.Verifier.ok clean.Runtime.sv_report
        && Sbt_attest.Verifier.ok crashed.Runtime.sv_report
      in
      (* Checkpoint overhead = supervised-clean minus plain; recovery cost =
         crashed minus clean (reboot + unseal + replayed-suffix re-execution). *)
      let ckpt_ms = (clean_wall -. plain_wall) *. 1e3 in
      let recov_ms = (crash_wall -. clean_wall) *. 1e3 in
      ignore
        (Bench_json.append ~section:"recovery"
           [
             ("ckpt_every", J.num_of_int every);
             ("checkpoints", J.num_of_int clean.Runtime.sv_checkpoints);
             ("checkpoint_bytes", J.num_of_int clean.Runtime.sv_checkpoint_bytes);
             ("crash_after_tasks", J.num_of_int crash_after);
             ("replayed_frames", J.num_of_int crashed.Runtime.sv_replayed_frames);
             ("epochs", J.num_of_int crashed.Runtime.sv_epoch_count);
             ("plain_wall_ms", J.Num (plain_wall *. 1e3));
             ("supervised_wall_ms", J.Num (clean_wall *. 1e3));
             ("crashed_wall_ms", J.Num (crash_wall *. 1e3));
             ("checkpoint_overhead_ms", J.Num ckpt_ms);
             ("recovery_ms", J.Num recov_ms);
             ("identical", J.Bool identical);
             ("verified", J.Bool verified);
           ]);
      Printf.printf "  %-10d %-7d %-9d %-9.1f %-9d %-10.1f %-9b %b\n" every
        clean.Runtime.sv_checkpoints clean.Runtime.sv_checkpoint_bytes ckpt_ms
        crashed.Runtime.sv_replayed_frames recov_ms identical verified)
    [ 1; 2; 4 ];
  Printf.printf
    "  (identical = crashed+recovered results and audit bytes match the uninterrupted run)\n";
  Printf.printf "  wrote %s\n" (Bench_json.path ~section:"recovery" ())

(* ------------------------------------------------------------------ *)
(* Fleet: aggregate throughput and output freshness vs fleet size and
   churn (one permanent kill + attested handoff)                        *)

let fleet_bench () =
  section "[fleet] partitioned multi-edge ingestion, churn vs clean (WinSum)";
  let module Fault = Sbt_fault.Fault in
  let module Fleet = Sbt_fleet.Fleet in
  let module V = Sbt_attest.Verifier in
  let epw_f = max 400 (epw / 8) in
  let batch_f = max 100 (batch / 8) in
  let cfg = Sbt_core.Runtime.Config.make ~cores:4 ~deterministic:true () in
  let bench = B.win_sum ~windows ~events_per_window:epw_f ~batch_events:batch_f () in
  let frames = B.frames bench in
  let p99_freshness (r : V.fleet_report) =
    let delays =
      List.concat_map
        (fun (cr : V.chain_report) -> List.map snd cr.V.cr_report.V.delays)
        r.V.chain_reports
      |> List.sort compare
    in
    match delays with
    | [] -> 0
    | ds ->
        let n = List.length ds in
        List.nth ds (max 0 (int_of_float (Float.ceil (0.99 *. float_of_int n)) - 1))
  in
  let run_one ~m ~churn =
    let scenario =
      if churn then
        Fault.fleet_scenario ~suspect_after:2
          [ Fault.Kill { node = 1; at_beat = 1; permanent = true } ]
      else Fault.fleet_none ~suspect_after:2
    in
    let t0 = Clock.now_ns () in
    let s = Fleet.run ~scenario ~nodes:m ~batch_events:batch_f cfg bench.B.pipeline frames in
    let wall = Clock.elapsed_ns ~since:t0 /. 1e9 in
    (s, wall)
  in
  Printf.printf "  %-3s %-6s %-10s %-12s %-9s %-7s %-8s %-9s %s\n" "M" "churn" "events/s"
    "makespan-ms" "p99-frsh" "deaths" "handoffs" "verified" "identical";
  List.iter
    (fun m ->
      let clean, clean_wall = run_one ~m ~churn:false in
      let emit tag (s : Fleet.summary) wall identical =
        let makespan_ms = s.Fleet.makespan_ns /. 1e6 in
        let rate = float_of_int s.Fleet.total_events /. (s.Fleet.makespan_ns /. 1e9) in
        let p99 = p99_freshness s.Fleet.report in
        let verified = V.fleet_ok s.Fleet.report in
        ignore
          (Bench_json.append ~section:"fleet"
             [
               ("nodes", J.num_of_int m);
               ("churn", J.Bool (tag = "kill"));
               ("events", J.num_of_int s.Fleet.total_events);
               ("windows", J.num_of_int s.Fleet.windows);
               ("agg_events_per_s", J.Num rate);
               ("makespan_ms", J.Num makespan_ms);
               ("wall_ms", J.Num (wall *. 1e3));
               ("p99_freshness_ticks", J.num_of_int p99);
               ("uplink_bytes", J.num_of_int s.Fleet.uplink_bytes);
               ("deaths", J.num_of_int s.Fleet.deaths);
               ("handoffs", J.num_of_int (List.length s.Fleet.handoffs));
               ("replayed_frames", J.num_of_int s.Fleet.replayed_frames);
               ("verified", J.Bool verified);
               ("identical_to_clean", J.Bool identical);
             ]);
        Printf.printf "  %-3d %-6s %-10.0f %-12.2f %-9d %-7d %-8d %-9b %b\n" m tag rate
          makespan_ms p99 s.Fleet.deaths (List.length s.Fleet.handoffs) verified identical
      in
      emit "none" clean clean_wall true;
      (* one permanent kill needs a survivor to adopt the partition *)
      if m > 1 then begin
        let churned, churned_wall = run_one ~m ~churn:true in
        emit "kill" churned churned_wall (churned.Fleet.merged = clean.Fleet.merged)
      end)
    [ 1; 2; 4; 8 ];
  Printf.printf
    "  (identical = churned fleet's merged egress matches the un-churned run byte-for-byte)\n";
  Printf.printf "  wrote %s\n" (Bench_json.path ~section:"fleet" ())

(* ------------------------------------------------------------------ *)
(* Operator fusion: world switches and audit volume per window        *)

let fusion () =
  section "[fusion] in-TEE operator fusion: SMC switches and audit volume (PR 7)";
  Printf.printf
    "  FpsChain (5 adjacent per-record stages) runs as one fused chain, in the same\n";
  Printf.printf
    "  trusted call as the batch's ingest and Segment: one world switch per batch and\n";
  Printf.printf
    "  one composite audit record per segment; small batches are where the switch\n";
  Printf.printf "  rate dominates:\n";
  Printf.printf "  %6s %10s %12s %10s %14s %9s\n" "batch" "switches" "switch/win" "audit B"
    "audit B/win" "verified";
  let epw_f = if smoke then 1_000 else 4_000 in
  List.iter
    (fun batch_events ->
      let bench = B.fps ~windows ~events_per_window:epw_f ~batch_events () in
      let o =
        Runner.run ~cores_list:[ 8 ] ~target_delay_ms:bench.B.target_delay_ms
          (Runtime.Config.make ~version:D.Clear_ingress ~deterministic:true ())
          bench.B.pipeline (B.frames bench)
      in
      let sw = Sbt_obs.Metrics.find_counter o.Runner.registry "smc.switches" in
      let ab = Sbt_obs.Metrics.find_counter o.Runner.registry "audit.bytes" in
      let per_win n = float_of_int n /. float_of_int windows in
      Printf.printf "  %6d %10d %12.1f %10d %14.1f %9b\n" batch_events sw (per_win sw) ab
        (per_win ab) o.Runner.verified;
      ignore
        (Bench_json.append ~section:"fusion"
           [
             ("batch", J.num_of_int batch_events);
             ("switches", J.num_of_int sw);
             ("switches_per_window", J.Num (per_win sw));
             ("audit_bytes", J.num_of_int ab);
             ("audit_bytes_per_window", J.Num (per_win ab));
             ("audit_records", J.num_of_int o.Runner.audit_records);
             ("verified", J.Bool o.Runner.verified);
           ]))
    [ 16; 64; 256 ];
  Printf.printf "  wrote %s\n" (Bench_json.path ~section:"fusion" ())

(* ------------------------------------------------------------------ *)
(* Multi-tenant enclave: aggregate throughput and fairness (p99
   per-tenant output delay) vs tenant count, N small pipelines
   consolidated behind one Session (PR 8)                               *)

let tenants_bench () =
  section "[tenants] N pipelines in one enclave: aggregate rate and fairness (PR 8)";
  let module Session = Sbt_core.Session in
  let module Multi = Sbt_core.Multi in
  let module V = Sbt_attest.Verifier in
  let counts = if smoke then [ 1; 8 ] else if quick then [ 1; 8; 64 ] else [ 1; 8; 64; 256 ] in
  let cfg = Sbt_core.Runtime.Config.make ~cores:4 ~deterministic:true () in
  Printf.printf
    "  N small tenant pipelines (taxi per-fleet, power per-district mixes) share the\n";
  Printf.printf
    "  enclave under DRR scheduling; fairness = p99 per-tenant output delay:\n";
  Printf.printf "  %-4s %-9s %-10s %-12s %-11s %-11s %s\n" "N" "events" "agg-ev/s"
    "makespan-ms" "p99-dly-ms" "max-dly-ms" "verdicts";
  List.iter
    (fun n ->
      (* total work roughly constant across N: each tenant gets a slice *)
      let epw_t = max 1_000 (epw / (4 * n)) in
      let batch_t = max 250 (epw_t / 4) in
      let session =
        List.fold_left
          (fun s i ->
            match
              B.mix ~windows:2 ~events_per_window:epw_t ~batch_events:batch_t
                ~encrypted:true "mixed" i
            with
            | Some b -> Session.add_tenant ~id:i ~pipeline:b.B.pipeline ~source:(B.frames b) s
            | None -> s)
          (Session.create cfg)
          (List.init n (fun i -> i))
      in
      let t0 = Clock.now_ns () in
      let res = Session.run session in
      let wall = Clock.elapsed_ns ~since:t0 /. 1e9 in
      let clean, degraded, violating =
        match res.Multi.report with
        | Some r -> (r.V.tenants_clean, r.V.tenants_degraded, r.V.tenants_violating)
        | None -> (0, 0, 0)
      in
      ignore
        (Bench_json.append ~section:"tenants"
           [
             ("tenants", J.num_of_int n);
             ("events", J.num_of_int res.Multi.agg_events);
             ("agg_events_per_s", J.Num res.Multi.agg_events_per_sec);
             ("makespan_ms", J.Num (res.Multi.makespan_ns /. 1e6));
             ("wall_ms", J.Num (wall *. 1e3));
             ("p99_delay_ms", J.Num (res.Multi.p99_delay_ns /. 1e6));
             ("max_delay_ms", J.Num (res.Multi.max_delay_ns /. 1e6));
             ("clean", J.num_of_int clean);
             ("degraded", J.num_of_int degraded);
             ("violating", J.num_of_int violating);
             ( "verified",
               J.Bool (match res.Multi.report with Some r -> V.tenants_ok r | None -> false) );
           ]);
      Printf.printf "  %-4d %-9d %-10.0f %-12.2f %-11.2f %-11.2f %d/%d clean\n" n
        res.Multi.agg_events res.Multi.agg_events_per_sec
        (res.Multi.makespan_ns /. 1e6)
        (res.Multi.p99_delay_ns /. 1e6)
        (res.Multi.max_delay_ns /. 1e6)
        clean n)
    counts;
  Printf.printf
    "  (delays are per-tenant output delays under the merged DRR schedule)\n";
  Printf.printf "  wrote %s\n" (Bench_json.path ~section:"tenants" ())

(* ------------------------------------------------------------------ *)
(* Out-of-order robustness: throughput and output delay vs disorder
   fraction, and what each attested late-data policy costs in
   correction volume (PR 10)                                             *)

let disorder_bench () =
  section "[disorder] out-of-order uplink: rate, delay and correction volume (PR 10)";
  let module Fault = Sbt_fault.Fault in
  let module G = Sbt_workloads.Datagen in
  let module V = Sbt_attest.Verifier in
  let rates = [ 0.0; 0.05; 0.2 ] in
  let policies = [ ("drop", D.Drop_declare); ("retract", D.Retract_reemit) ] in
  (* B.vitals carries mutable random-walk state: fresh bench per stream. *)
  let bench () = B.vitals ~windows ~events_per_window:epw ~batch_events:batch () in
  let frames rate =
    let b = bench () in
    if rate = 0.0 then B.frames b
    else
      G.frames
        {
          b.B.spec with
          G.disorder = Fault.disorder_plan ~seed:97L ~rate ();
          watermark = G.Heuristic 0;
        }
  in
  Printf.printf
    "  vitals pipeline, zero-slack heuristic watermark: a disordered uplink turns\n";
  Printf.printf
    "  late arrivals into declared drops or sealed corrections:\n";
  Printf.printf "  %-8s %-9s %-10s %-9s %-11s %-12s %s\n" "policy" "disorder" "ev/s@4c"
    "delay-ms" "late-drops" "corrections" "verified";
  List.iter
    (fun (pname, policy) ->
      List.iter
        (fun rate ->
          let outcome =
            Runner.run ~cores_list:[ 4 ]
              (Runtime.Config.make ~cores:4 ~deterministic:true ~late_policy:policy ())
              (bench ()).B.pipeline (frames rate)
          in
          let pt = List.hd outcome.Runner.points in
          let rep = outcome.Runner.verifier_report in
          ignore
            (Bench_json.append ~section:"disorder"
               [
                 ("policy", J.Str pname);
                 ("disorder", J.Num rate);
                 ("events", J.num_of_int outcome.Runner.total_events);
                 ("events_per_s", J.Num pt.Runner.events_per_sec);
                 ("delay_ms", J.Num pt.Runner.delay_ms);
                 ("late_drops", J.num_of_int rep.V.late_drops);
                 ("late_events", J.num_of_int rep.V.late_events);
                 ("corrections", J.num_of_int rep.V.corrections);
                 ("corrected_windows", J.num_of_int (List.length rep.V.corrected_windows));
                 ("verified", J.Bool outcome.Runner.verified);
               ]);
          Printf.printf "  %-8s %-9.2f %-10.0f %-9.2f %-11d %-12d %b\n" pname rate
            pt.Runner.events_per_sec pt.Runner.delay_ms rep.V.late_drops rep.V.corrections
            outcome.Runner.verified)
        rates)
    policies;
  Printf.printf
    "  (at disorder 0 both policies are idle: no late data, identical bytes)\n";
  Printf.printf "  wrote %s\n" (Bench_json.path ~section:"disorder" ())

let sections =
  [
    ("table4", table4);
    ("crypto", crypto);
    ("fig7", fig7);
    ("fig8", fig8);
    ("fig9", fig9);
    ("fig10", fig10);
    ("fig11", fig11);
    ("fig12", fig12);
    ("sort-ablation", sort_ablation);
    ("kernels", kernels);
    ("batch-sweep", batch_sweep);
    ("switch-sweep", switch_sweep);
    ("fusion", fusion);
    ("attest-overhead", attest_overhead);
    ("opaque-refs", opaque_refs);
    ("resilience", resilience);
    ("recovery", recovery_bench);
    ("fleet", fleet_bench);
    ("tenants", tenants_bench);
    ("disorder", disorder_bench);
  ]

let () =
  Printf.printf "StreamBox-TZ benchmark harness (%s scale)\n" scale;
  Printf.printf
    "host: %d recommended domain(s); multicore figures come from virtual-time replay (see DESIGN.md)\n"
    (Domain.recommended_domain_count ());
  let requested = List.tl (Array.to_list Sys.argv) in
  List.iter
    (fun name ->
      if not (List.mem_assoc name sections) then begin
        Printf.eprintf "unknown section %S; available: %s\n" name
          (String.concat " " (List.map fst sections));
        exit 1
      end)
    requested;
  List.iter
    (fun (name, run) -> if requested = [] || List.mem name requested then run ())
    sections;
  print_endline "\nAll sections complete. Paper-vs-measured record: EXPERIMENTS.md"
