(* Pipeline IR and in-TEE operator fusion (PR 7).

   Fusion is the only plan: the runtime executes [Ir.fuse (Ir.lower p)],
   one R_invoke per node.  The headline property drives the data plane
   directly: for random chains mixing fusable and non-fusable batch stages
   over random batches, the lowered plan (one length-1 invoke per stage)
   and the fused plan (chains) give equal rows, and a chain costs one
   switch pair and one audit record where its steps cost N.  Golden
   digests pin the fps pipeline's sealed results to the bytes the
   stage-at-a-time plan sealed.  Plus unit tests for the fusion pass
   itself: what it fuses, what it refuses, and idempotence. *)

module Ir = Sbt_core.Ir
module Pipeline = Sbt_core.Pipeline
module Runtime = Sbt_core.Runtime
module D = Sbt_core.Dataplane
module Event = Sbt_core.Event
module P = Sbt_prim.Primitive
module B = Sbt_workloads.Benchmarks
module Datagen = Sbt_workloads.Datagen
module Log = Sbt_attest.Log
module Record = Sbt_attest.Record
module V = Sbt_attest.Verifier

let egress_key = Bytes.of_string "sbt-egress-key16"

(* --- fusion pass units ------------------------------------------------------ *)

let vf = Event.default.Event.value_field

let f_band = Pipeline.B_filter_band { field = vf; lo = 0l; hi = 1_000_000l }
let f_proj = Pipeline.B_project [| 0; 1; 2 |]
let f_sel = Pipeline.B_select { field = 0; value = 3l }
let f_shift = Pipeline.B_shift_key { field = 0; shift = 4 }
let f_sort = Pipeline.B_sort { key_field = 0; secondary_value = None }

let single op = Ir.N_invoke [ Ir.step_of_op op ]
let chain ops = Ir.N_invoke (List.map Ir.step_of_op ops)
let node = Alcotest.testable Ir.pp_node ( = )

let test_fuse_chain () =
  (* The FPS chain: five adjacent fusable stages become one chain. *)
  let pipe = Pipeline.fps_chain () in
  let fused = Ir.fuse (Ir.lower pipe) in
  (match fused with
  | [ Ir.N_invoke steps; Ir.N_window ] ->
      Alcotest.(check int) "all five stages absorbed" 5 (List.length steps);
      Alcotest.(check (list int))
        "step ops in declaration order"
        (List.map
           (fun op -> P.to_id (Pipeline.batch_op_primitive op))
           pipe.Pipeline.batch_ops)
        (List.map (fun (op, _) -> P.to_id op) steps)
  | _ -> Alcotest.failf "unexpected plan: %a" Ir.pp fused);
  Alcotest.(check int) "one switch per segment" 1 (Ir.switch_count fused);
  Alcotest.(check int) "five switches lowered" 5 (Ir.switch_count (Ir.lower pipe))

let test_fuse_barrier_sort () =
  (* Sort is not per-record: fusion must not cross it. *)
  Alcotest.(check (list node))
    "sort splits the chain; lone head stays single"
    [ single f_band; single f_sort; chain [ f_sel; f_proj ] ]
    (Ir.fuse (List.map single [ f_band; f_sort; f_sel; f_proj ]))

let test_fuse_barrier_window () =
  (* The window boundary is a hard barrier even between fusable ops. *)
  let fused =
    Ir.fuse [ single f_band; single f_proj; Ir.N_window; single f_sel; single f_shift ]
  in
  Alcotest.(check (list node))
    "one chain each side"
    [ chain [ f_band; f_proj ]; Ir.N_window; chain [ f_sel; f_shift ] ]
    fused;
  Alcotest.(check int) "window costs no switch" 2 (Ir.switch_count fused)

let test_fuse_lone_op_stays () =
  (* A single fusable op already costs exactly one switch. *)
  Alcotest.(check (list node))
    "lone op unchanged" [ single f_band; Ir.N_window ]
    (Ir.fuse [ single f_band; Ir.N_window ])

let test_fuse_idempotent () =
  let plans =
    [
      List.map single [ f_band; f_proj; f_sort; f_sel ] @ [ Ir.N_window ];
      Ir.lower (Pipeline.fps_chain ());
      [ Ir.N_window ];
      [];
    ]
  in
  List.iter
    (fun nodes ->
      let once = Ir.fuse nodes in
      Alcotest.(check (list node)) "fuse o fuse = fuse" once (Ir.fuse once))
    plans

(* --- chains = their steps, through the data plane ---------------------------- *)

(* Random batch-stage chains over the default 3-field schema.  The pool
   mixes the four per-record ops, among them a band that drops every
   record, with Sort (non-fusable), so generated chains exercise fusable
   runs, barriers splitting them, lone fusable ops, all-dropped batches
   and empty chains. *)
let batch_op_gen =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun hi -> Pipeline.B_filter_band { field = vf; lo = 0l; hi }) (map Int32.of_int (int_range 0 0x3FFFFFFF)));
        (1, return (Pipeline.B_filter_band { field = vf; lo = 1l; hi = 0l }));
        (2, map (fun shift -> Pipeline.B_shift_key { field = 0; shift }) (int_range 1 10));
        (2, map (fun value -> Pipeline.B_select { field = 0; value = Int32.of_int value }) (int_range 0 40));
        (2, oneofl [ Pipeline.B_project [| 0; 1; 2 |]; Pipeline.B_project [| 2; 1; 0 |] ]);
        (2, return (Pipeline.B_sort { key_field = 0; secondary_value = None }));
      ])

let chain_gen = QCheck.Gen.(list_size (int_range 0 6) batch_op_gen)

(* Keys small enough for Select to match and values on both sides of the
   band, negative ones included; empty batches included. *)
let batch_gen =
  QCheck.Gen.(
    list_size (int_range 0 300)
      (map3
         (fun k v ts -> [| Int32.of_int k; Int32.of_int v; Int32.of_int ts |])
         (int_range (-8) 40) (int_range (-0x40000000) 0x3FFFFFFF) (int_range 0 999)))

let pp_chain ops = Format.asprintf "%a" Ir.pp (List.map single ops)

let pipeline_of_chain batch_ops =
  {
    Pipeline.name = "IrProp";
    schema = Event.default;
    window_size_ticks = 1000;
    window_slide_ticks = 1000;
    window_kind = `Fixed;
    streams = 1;
    batch_ops;
    window_ops = [ P.Concat ];
    window_udf_invocations = 0;
    udfs = [];
    plan =
      (fun ctx ->
        match ctx.Pipeline.invoke P.Concat (List.map snd ctx.Pipeline.ready) with
        | [ r ] -> r
        | _ -> failwith "IrProp: expected one Concat output");
  }

(* Ingest one batch into a fresh data plane, run [plan] over it one node
   at a time, and egress the result.  Returns the opened rows, the
   (switch pairs, audit records) each invoke node cost, and the audit. *)
let run_plan plan records =
  let cfg = D.Config.make ~deterministic:true () in
  let dp = D.create cfg in
  let payload = Sbt_net.Frame.pack_events ~width:3 (Array.of_list records) in
  let seg =
    match
      D.call dp
        (D.R_ingest_events
           { payload; encrypted = false; stream = 0; seq = 0; mac = Bytes.empty; windowing = None })
    with
    | D.Ingested { outs = [ out ]; _ } -> out.D.ref_
    | D.Ingested _ | D.Refused _ -> Alcotest.fail "ingest"
  in
  let cost () =
    let records = D.audit_records_produced dp in
    ((D.stats dp).D.switch_pairs, records)
  in
  let out, costs =
    List.fold_left
      (fun (r, costs) -> function
        | Ir.N_window -> (r, costs)
        | Ir.N_invoke chain -> (
            let s0, a0 = cost () in
            match
              D.call dp
                (D.R_invoke
                   { chain; inputs = [ r ]; trigger = None; hints = []; retire_inputs = true })
            with
            | [ o ] ->
                let s1, a1 = cost () in
                (o.D.ref_, (s1 - s0, a1 - a0) :: costs)
            | _ -> Alcotest.fail "invoke must have one output"))
      (seg, []) plan
  in
  let rows =
    D.open_result ~egress_key:cfg.D.egress_key (D.call dp (D.R_egress { input = out; window = 0 }))
  in
  (rows, List.rev costs, D.audit_records_for_test dp)

let prop_chains_equal_steps =
  QCheck.Test.make
    ~name:"Ir.fuse chains = Ir.lower steps via Dataplane.call: rows, 1 switch + 1 record each"
    ~count:300
    (QCheck.make
       ~print:(fun (ops, records) ->
         Printf.sprintf "%s over %d records" (pp_chain ops) (List.length records))
       QCheck.Gen.(pair chain_gen batch_gen))
    (fun (ops, records) ->
      let lowered = Ir.lower (pipeline_of_chain ops) in
      let fused = Ir.fuse lowered in
      let rows_l, costs_l, _ = run_plan lowered records in
      let rows_f, costs_f, audit_f = run_plan fused records in
      let one_each costs n = List.length costs = n && List.for_all (( = ) (1, 1)) costs in
      let chains = List.filter (function Ir.N_invoke (_ :: _ :: _) -> true | _ -> false) fused in
      let composites = List.filter (function Record.Fused _ -> true | _ -> false) audit_f in
      rows_l = rows_f
      && one_each costs_l (List.length ops)
      && one_each costs_f (Ir.switch_count fused)
      && List.length composites = List.length chains)

(* --- the fused plan end to end ---------------------------------------------- *)

let det_cfg () = Runtime.Config.make ~cores:4 ~deterministic:true ()

let frames_for ~windows ~events_per_window ~batch_events =
  Datagen.frames
    (Datagen.default_spec ~windows ~events_per_window ~batch_events ())

let verdict (r : Runtime.run_result) =
  let records = List.concat_map (Log.open_batch ~key:egress_key) r.Runtime.audit in
  let rep = V.verify r.Runtime.verifier_spec records in
  (V.ok rep, rep.V.declared_gaps, List.length rep.V.violations)

let essentials (r : Runtime.run_result) = (r.Runtime.results, verdict r, r.Runtime.loss)

let prop_fused_rerun_agrees =
  QCheck.Test.make
    ~name:"fused plan verifies and reruns to identical results, verdict and loss"
    ~count:8
    (QCheck.make ~print:pp_chain chain_gen)
    (fun ops ->
      let pipe = pipeline_of_chain ops in
      let frames = frames_for ~windows:2 ~events_per_window:800 ~batch_events:200 in
      let run () = essentials (Runtime.run (det_cfg ()) pipe frames) in
      let first = run () in
      let verified = match first with _, (ok, _, _), _ -> ok in
      verified && first = run ())

(* The audit stream of a default run actually contains composite records:
   one per segment, each standing for all five stages. *)
let test_fused_records_present () =
  let pipe = Pipeline.fps_chain () in
  let frames = frames_for ~windows:2 ~events_per_window:1_000 ~batch_events:250 in
  let r = Runtime.run (det_cfg ()) pipe frames in
  let records = List.concat_map (Log.open_batch ~key:egress_key) r.Runtime.audit in
  let count p = List.length (List.filter p records) in
  let segments = count (function Record.Windowing _ -> true | _ -> false) in
  Alcotest.(check bool) "segments produced" true (segments > 0);
  Alcotest.(check int) "one composite record per segment" segments
    (count (function Record.Fused { ops; _ } -> List.length ops = 5 | _ -> false))

(* --- golden fps results -------------------------------------------------------- *)

(* MD5 of the SBTR1 file [sbt_run --results-out] writes for the same run,
   taken when each segment still ran its five stages as five invokes:
     sbt_run fps -w 4 -e 8000 -b 64 --version clear --deterministic
     sbt_run fps -w 2 -e 2000 -b 250 --deterministic *)
let results_digest results =
  let buf = Buffer.create 4096 in
  let u32 v =
    for i = 0 to 3 do
      Buffer.add_char buf (Char.unsafe_chr ((v lsr (8 * i)) land 0xFF))
    done
  in
  let block b =
    u32 (Bytes.length b);
    Buffer.add_bytes buf b
  in
  Buffer.add_string buf "SBTR1";
  u32 (List.length results);
  List.iter
    (fun (w, (s : D.sealed_result)) ->
      u32 w;
      u32 s.D.window;
      u32 s.D.events;
      u32 s.D.width;
      block s.D.cipher;
      block s.D.tag)
    results;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_golden_fps ~version ~windows ~batch_events ~events_per_window expected () =
  let b =
    B.fps ~windows ~events_per_window ~batch_events ~encrypted:(version = D.Full) ()
  in
  let cfg = Runtime.Config.make ~version ~deterministic:true () in
  let r = Runtime.run cfg b.B.pipeline (B.frames b) in
  Alcotest.(check string) "sealed results digest" expected (results_digest r.Runtime.results)

let () =
  Alcotest.run "ir"
    [
      ( "fusion-pass",
        [
          Alcotest.test_case "fps chain fuses to one kernel" `Quick test_fuse_chain;
          Alcotest.test_case "sort is a barrier" `Quick test_fuse_barrier_sort;
          Alcotest.test_case "window boundary is a barrier" `Quick test_fuse_barrier_window;
          Alcotest.test_case "lone fusable op stays unfused" `Quick test_fuse_lone_op_stays;
          Alcotest.test_case "idempotent on already-fused plans" `Quick test_fuse_idempotent;
        ] );
      ( "fused-equals-unfused",
        [
          QCheck_alcotest.to_alcotest prop_chains_equal_steps;
          QCheck_alcotest.to_alcotest prop_fused_rerun_agrees;
          Alcotest.test_case "fused runs emit composite records" `Quick
            test_fused_records_present;
        ] );
      ( "golden",
        [
          Alcotest.test_case "fps -b 64 sealed results" `Quick
            (test_golden_fps ~version:D.Clear_ingress ~windows:4 ~events_per_window:8_000
               ~batch_events:64 "3fe66fe9cfabaeaf2947ae8688ebd6b3");
          Alcotest.test_case "fps -b 250 sealed results" `Quick
            (test_golden_fps ~version:D.Full ~windows:2 ~events_per_window:2_000
               ~batch_events:250 "7156ceb29210c9c76de01273eec8cdf3");
        ] );
    ]
