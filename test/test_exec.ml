(* Tests for the real-parallel layer: the work deque, the work-stealing
   executor over recorded traces, the engine-equivalence invariant
   ([`Des] / [`Domains 1] / [`Domains n] produce byte-identical
   observables), the exec.* metrics, and the domain-safe shard plumbing
   in the page pool and the audit log. *)

module Deque = Sbt_exec.Deque
module Executor = Sbt_exec.Executor
module Trace = Sbt_sim.Trace
module Pool = Sbt_umem.Page_pool
module Log = Sbt_attest.Log
module Record = Sbt_attest.Record
module Runtime = Sbt_core.Runtime
module Metrics = Sbt_obs.Metrics
module B = Sbt_workloads.Benchmarks
module Fault = Sbt_fault.Fault
module V = Sbt_attest.Verifier

let egress_key = Bytes.of_string "sbt-egress-key16"

(* --- deque ------------------------------------------------------------------ *)

let test_deque_lifo () =
  let d = Deque.create () in
  Alcotest.(check (option int)) "empty pop" None (Deque.pop d);
  List.iter (Deque.push d) [ 1; 2; 3 ];
  Alcotest.(check int) "length" 3 (Deque.length d);
  Alcotest.(check (option int)) "newest first" (Some 3) (Deque.pop d);
  Alcotest.(check (option int)) "then 2" (Some 2) (Deque.pop d);
  Deque.push d 4;
  Alcotest.(check (option int)) "push after pop" (Some 4) (Deque.pop d);
  Alcotest.(check (option int)) "oldest last" (Some 1) (Deque.pop d);
  Alcotest.(check (option int)) "drained" None (Deque.pop d)

let test_deque_steal_half () =
  let d = Deque.create () in
  Alcotest.(check (list int)) "steal from empty" [] (Deque.steal_half d);
  List.iter (Deque.push d) [ 1; 2; 3; 4; 5 ];
  (* ceil(5/2) = 3 oldest, oldest first. *)
  Alcotest.(check (list int)) "oldest half, oldest first" [ 1; 2; 3 ] (Deque.steal_half d);
  Alcotest.(check (option int)) "owner still LIFO" (Some 5) (Deque.pop d);
  Alcotest.(check (list int)) "steal the last one" [ 4 ] (Deque.steal_half d);
  Alcotest.(check int) "empty again" 0 (Deque.length d)

let test_deque_grows () =
  let d = Deque.create () in
  for i = 1 to 1_000 do
    Deque.push d i
  done;
  for i = 1_000 downto 1 do
    Alcotest.(check (option int)) "LIFO through growth" (Some i) (Deque.pop d)
  done

let test_deque_cross_domain () =
  (* One owner pushing and popping, one thief stealing: every pushed
     element comes out exactly once, whoever dequeued it. *)
  let d = Deque.create () in
  let n = 20_000 in
  let stolen = ref [] in
  let thief =
    Domain.spawn (fun () ->
        let got = ref [] in
        let misses = ref 0 in
        while !misses < 200 do
          match Deque.steal_half d with
          | [] ->
              incr misses;
              Domain.cpu_relax ()
          | xs ->
              misses := 0;
              got := List.rev_append xs !got
        done;
        !got)
  in
  let popped = ref [] in
  for i = 1 to n do
    Deque.push d i;
    if i mod 3 = 0 then
      match Deque.pop d with Some x -> popped := x :: !popped | None -> ()
  done;
  let rec drain () =
    match Deque.pop d with
    | Some x ->
        popped := x :: !popped;
        drain ()
    | None -> ()
  in
  drain ();
  stolen := Domain.join thief;
  (* The thief may have grabbed elements between our drain and its last
     probe — drain once more to be sure nothing is left. *)
  drain ();
  let all = List.sort compare (!stolen @ !popped) in
  Alcotest.(check int) "nothing lost or duplicated" n (List.length all);
  Alcotest.(check (list int)) "exactly 1..n" (List.init n (fun i -> i + 1)) all

(* --- executor over a synthetic trace ---------------------------------------- *)

(* A two-window diamond-ish graph: a source chain with fan-out per
   window, each window closed by an [Egress_of]. *)
let synthetic_trace () =
  let node ?(deps = []) ?(role = Trace.Plain) label =
    { Trace.label; cost_ns = 1_000.0; deps; arrival_events = None; role }
  in
  Trace.of_nodes
    [|
      node "ingest:0";
      node ~deps:[ 0 ] "sort:0";
      node ~deps:[ 0 ] "count:0";
      node ~deps:[ 1; 2 ] ~role:(Trace.Egress_of 0) "egress:0";
      node ~deps:[ 0 ] "ingest:1";
      node ~deps:[ 4 ] "sort:1";
      node ~deps:[ 4 ] "count:1";
      node ~deps:[ 5; 6 ] ~role:(Trace.Egress_of 1) "egress:1";
    |]

let test_executor_runs_graph () =
  let trace = synthetic_trace () in
  let r1 = Executor.run ~time_scale:0.0 ~domains:1 trace in
  let r4 = Executor.run ~time_scale:0.0 ~domains:4 trace in
  Alcotest.(check int) "all tasks ran (1 domain)" 8 r1.Executor.tasks_executed;
  Alcotest.(check int) "all tasks ran (4 domains)" 8 r4.Executor.tasks_executed;
  Alcotest.(check int) "per-domain tasks sum (4)" 8
    (Array.fold_left (fun a s -> a + s.Executor.tasks) 0 r4.Executor.per_domain);
  Alcotest.(check string) "journal identical across domain counts"
    r1.Executor.journal r4.Executor.journal;
  Alcotest.(check int) "one pool merge per window close" 2 r1.Executor.pool_merges;
  (* The journal is the schedule order, verbatim. *)
  Alcotest.(check string) "journal is schedule order"
    "0 ingest:0\n1 sort:0\n2 count:0\n3 egress:0\n4 ingest:1\n5 sort:1\n6 count:1\n7 egress:1\n"
    r1.Executor.journal

let test_executor_rejects_bad_args () =
  let trace = synthetic_trace () in
  Alcotest.check_raises "zero domains"
    (Invalid_argument "Executor.run: domains must be positive") (fun () ->
      ignore (Executor.run ~domains:0 trace));
  Alcotest.check_raises "negative time_scale"
    (Invalid_argument "Executor.run: negative time_scale") (fun () ->
      ignore (Executor.run ~time_scale:(-1.0) ~domains:1 trace))

(* --- engine equivalence ------------------------------------------------------ *)

(* Noise-free cost model so recordings are reproducible across engines
   within the process. *)
let det_cfg ?(fault_plan = Fault.none) () =
  Runtime.Config.make ~cores:4 ~deterministic:true ~fault_plan ()

let observables (r : Runtime.run_result) =
  ( r.Runtime.results,
    List.map
      (fun (b : Log.batch) -> (b.Log.seq, b.Log.payload, b.Log.tag))
      r.Runtime.audit,
    r.Runtime.tee_metrics )

let verdict (r : Runtime.run_result) =
  let records = List.concat_map (Log.open_batch ~key:egress_key) r.Runtime.audit in
  let rep = V.verify r.Runtime.verifier_spec records in
  (V.ok rep, rep.V.declared_gaps, List.length rep.V.violations)

let prop_engine_equivalence =
  QCheck.Test.make ~name:"`Des / `Domains 1 / `Domains 4: byte-identical observables"
    ~count:6
    QCheck.(triple (int_range 1 2) (int_range 500 3_000) (int_range 0 20))
    (fun (windows, events_per_window, fault_pct) ->
      let fault_plan =
        if fault_pct = 0 then Fault.none
        else
          Fault.uniform ~seed:(Int64.of_int (fault_pct * 7)) ~rate:(float_of_int fault_pct /. 100.0) ()
      in
      let cfg = det_cfg ~fault_plan () in
      let run ?exec_mode engine =
        let bench = B.win_sum ~windows ~events_per_window ~batch_events:500 () in
        Runtime.run ~engine ?exec_mode ~exec_time_scale:0.0 cfg bench.B.pipeline
          (B.frames bench)
      in
      (* The [`Domains] runs execute the captured kernels for real
         ([`Work]); the reference [`Des] run records without capture, so
         equality also proves capturing perturbs nothing. *)
      let des = run (`Des 4) in
      let d1 = run ~exec_mode:`Work (`Domains 1) in
      let d4 = run ~exec_mode:`Work (`Domains 4) in
      observables des = observables d1
      && observables des = observables d4
      && verdict des = verdict d1
      && verdict des = verdict d4
      && des.Runtime.exec = None
      && (match d4.Runtime.exec with Some e -> e.Executor.domains = 4 | None -> false))

(* --- exec metrics ------------------------------------------------------------ *)

let test_exec_metrics_registered () =
  let bench = B.win_sum ~windows:2 ~events_per_window:2_000 ~batch_events:500 () in
  let r =
    Runtime.run ~engine:(`Domains 2) ~exec_time_scale:0.0 (det_cfg ()) bench.B.pipeline
      (B.frames bench)
  in
  let exec = match r.Runtime.exec with Some e -> e | None -> Alcotest.fail "no exec report" in
  let reg = r.Runtime.registry in
  Alcotest.(check int) "exec.tasks counts every task" exec.Executor.tasks_executed
    (Metrics.find_counter reg "exec.tasks");
  Alcotest.(check int) "exec.tasks matches the recording" r.Runtime.tasks_executed
    (Metrics.find_counter reg "exec.tasks");
  Alcotest.(check int) "exec.domains" 2 (Metrics.find_counter reg "exec.domains");
  Alcotest.(check int) "exec.steals mirrors the report" (Executor.total_steals exec)
    (Metrics.find_counter reg "exec.steals");
  Alcotest.(check int) "exec.parks mirrors the report" (Executor.total_parks exec)
    (Metrics.find_counter reg "exec.parks");
  Alcotest.(check bool) "exec.wall_ns registered" true
    (Metrics.find_counter reg "exec.wall_ns" >= 0)

(* --- real-work (`Work) mode -------------------------------------------------- *)

let test_work_mode_executes_kernels () =
  (* A sort-heavy recording with capture: the [`Work] replay must execute
     real kernel chunks, and re-measuring at another domain count must
     leave the recording's observables untouched. *)
  let bench = B.topk ~windows:2 ~events_per_window:6_000 ~batch_events:1_000 () in
  let cfg = det_cfg () in
  let r =
    Runtime.run ~engine:(`Domains 2) ~exec_mode:`Work cfg bench.B.pipeline (B.frames bench)
  in
  let exec = match r.Runtime.exec with Some e -> e | None -> Alcotest.fail "no exec report" in
  Alcotest.(check bool) "captured work present" true (r.Runtime.work <> None);
  Alcotest.(check int) "every task executed" r.Runtime.tasks_executed
    exec.Executor.tasks_executed;
  Alcotest.(check bool) "real kernel chunks ran" true (exec.Executor.chunks_executed > 0);
  let before = observables r in
  let again = Runtime.exec_trace ~mode:`Work ~domains:4 cfg r in
  Alcotest.(check bool) "re-measure runs chunks too" true (again.Executor.chunks_executed > 0);
  Alcotest.(check bool) "observables untouched by replay" true (observables r = before)

let test_work_mode_without_capture_is_noop () =
  let bench = B.win_sum ~windows:1 ~events_per_window:1_000 ~batch_events:500 () in
  let r = Runtime.run ~engine:(`Des 4) (det_cfg ()) bench.B.pipeline (B.frames bench) in
  Alcotest.(check bool) "no capture by default" true (r.Runtime.work = None);
  let rep = Runtime.exec_trace ~mode:`Work ~domains:2 (det_cfg ()) r in
  Alcotest.(check int) "tasks still complete" r.Runtime.tasks_executed
    rep.Executor.tasks_executed;
  Alcotest.(check int) "but no kernels run" 0 rep.Executor.chunks_executed

(* --- page-pool shards -------------------------------------------------------- *)

let test_pool_shard_accounting () =
  let pool = Pool.create ~budget_bytes:(64 * Pool.page_size) in
  let shards = Pool.shards ~refill_pages:8 pool ~n:2 in
  Pool.shard_commit shards.(0) ~pages:3;
  Alcotest.(check int) "shard sees its commit" (3 * Pool.page_size)
    (Pool.shard_committed_bytes shards.(0));
  (* Quota is drawn in refill-sized chunks: the parent books the chunk,
     a conservative bound on real usage. *)
  Alcotest.(check int) "parent books the refill chunk" 8 (Pool.committed_pages pool);
  Pool.shard_release shards.(0) ~pages:3;
  Alcotest.(check int) "shard back to zero" 0 (Pool.shard_committed_bytes shards.(0));
  Alcotest.(check bool) "high water kept" true
    (Pool.shard_high_water_bytes shards.(0) >= 3 * Pool.page_size);
  Pool.merge_shard shards.(0);
  Alcotest.(check int) "merge returns the quota" 0 (Pool.committed_pages pool)

let test_pool_shard_oom () =
  let pool = Pool.create ~budget_bytes:(4 * Pool.page_size) in
  let shards = Pool.shards ~refill_pages:4 pool ~n:1 in
  Pool.shard_commit shards.(0) ~pages:4;
  (try
     Pool.shard_commit shards.(0) ~pages:1;
     Alcotest.fail "overcommit accepted"
   with Pool.Out_of_secure_memory _ -> ());
  Pool.shard_release shards.(0) ~pages:4;
  Pool.merge_shard shards.(0);
  Alcotest.(check int) "budget fully returned" 0 (Pool.committed_pages pool)

(* --- audit-log shards -------------------------------------------------------- *)

let mk_records n =
  List.init n (fun i ->
      if i mod 5 = 4 then Record.Egress { ts = i; uarray = i; win_no = i / 5 }
      else Record.Ingress { ts = i; uarray = i; stream = 0; seq = i })

let batch_tuples = List.map (fun (b : Log.batch) -> (b.Log.seq, b.Log.payload, b.Log.tag))

let serial_batches records =
  let log = Log.create ~key:egress_key ~flush_every:4 in
  let auto = List.filter_map (Log.append log) records in
  auto @ Option.to_list (Log.flush log)

let test_log_merge_shards_matches_serial () =
  let records = mk_records 23 in
  let serial = serial_batches records in
  (* Stage the same records round-robin across 4 shards, tagged with
     their serial position, as the executor's domains would. *)
  let shards = Array.init 4 (fun _ -> Log.shard ()) in
  List.iteri (fun i r -> Log.shard_append shards.(i mod 4) ~seq:i r) records;
  let log = Log.create ~key:egress_key ~flush_every:4 in
  let auto = Log.merge_shards log shards in
  let merged = auto @ Option.to_list (Log.flush log) in
  Alcotest.(check int) "same batch count" (List.length serial) (List.length merged);
  Alcotest.(check bool) "byte-identical batches" true
    (batch_tuples serial = batch_tuples merged)

let test_log_merge_shards_parallel_append () =
  (* Real domains appending concurrently, each to its own shard: the
     merge still reproduces the serial bytes. *)
  let records = Array.of_list (mk_records 40) in
  let serial = serial_batches (Array.to_list records) in
  let shards = Array.init 4 (fun _ -> Log.shard ()) in
  let doms =
    Array.init 4 (fun d ->
        Domain.spawn (fun () ->
            Array.iteri (fun i r -> if i mod 4 = d then Log.shard_append shards.(d) ~seq:i r) records))
  in
  Array.iter Domain.join doms;
  Alcotest.(check int) "every record staged" 40
    (Array.fold_left (fun a s -> a + Log.shard_count s) 0 shards);
  let log = Log.create ~key:egress_key ~flush_every:4 in
  let auto = Log.merge_shards log shards in
  let merged = auto @ Option.to_list (Log.flush log) in
  Alcotest.(check bool) "parallel staging, serial bytes" true
    (batch_tuples serial = batch_tuples merged)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "exec"
    [
      ( "deque",
        [
          Alcotest.test_case "lifo" `Quick test_deque_lifo;
          Alcotest.test_case "steal-half" `Quick test_deque_steal_half;
          Alcotest.test_case "growth" `Quick test_deque_grows;
          Alcotest.test_case "cross-domain" `Quick test_deque_cross_domain;
        ] );
      ( "executor",
        [
          Alcotest.test_case "runs the graph" `Quick test_executor_runs_graph;
          Alcotest.test_case "rejects bad args" `Quick test_executor_rejects_bad_args;
        ] );
      ("engine-equivalence", [ q prop_engine_equivalence ]);
      ("metrics", [ Alcotest.test_case "exec.* counters" `Quick test_exec_metrics_registered ]);
      ( "work-mode",
        [
          Alcotest.test_case "executes captured kernels" `Quick test_work_mode_executes_kernels;
          Alcotest.test_case "no capture, no work" `Quick test_work_mode_without_capture_is_noop;
        ] );
      ( "pool-shards",
        [
          Alcotest.test_case "accounting" `Quick test_pool_shard_accounting;
          Alcotest.test_case "oom" `Quick test_pool_shard_oom;
        ] );
      ( "log-shards",
        [
          Alcotest.test_case "merge matches serial" `Quick test_log_merge_shards_matches_serial;
          Alcotest.test_case "parallel append" `Quick test_log_merge_shards_parallel_append;
        ] );
    ]
