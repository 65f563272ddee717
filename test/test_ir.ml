(* Pipeline IR and in-TEE operator fusion (PR 7).

   The headline property: for random pipelines mixing fusable and
   non-fusable batch-stage adjacencies, running with fusion on produces
   byte-identical sealed results, identical verifier verdicts and
   identical loss to running unfused — on both the DES engine and the
   real-parallel Domains engine in [`Work] mode (which re-executes the
   captured fused kernels for real).  Plus unit tests for the fusion
   pass itself: what it fuses, what it refuses, and idempotence. *)

module Ir = Sbt_core.Ir
module Pipeline = Sbt_core.Pipeline
module Runtime = Sbt_core.Runtime
module D = Sbt_core.Dataplane
module Event = Sbt_core.Event
module P = Sbt_prim.Primitive
module F = Sbt_prim.Fused
module Datagen = Sbt_workloads.Datagen
module Log = Sbt_attest.Log
module V = Sbt_attest.Verifier

let egress_key = Bytes.of_string "sbt-egress-key16"

(* --- fusion pass units ------------------------------------------------------ *)

let vf = Event.default.Event.value_field

let f_band = Pipeline.B_filter_band { field = vf; lo = 0l; hi = 1_000_000l }
let f_proj = Pipeline.B_project [| 0; 1; 2 |]
let f_sel = Pipeline.B_select { field = 0; value = 3l }
let f_shift = Pipeline.B_shift_key { field = 0; shift = 4 }
let f_sort = Pipeline.B_sort { key_field = 0; secondary_value = None }

let node = Alcotest.testable Ir.pp_node ( = )

let test_fuse_chain () =
  (* The FPS chain: five adjacent fusable stages become one super-kernel. *)
  let pipe = Pipeline.fps_chain () in
  let fused = Ir.fuse (Ir.lower pipe) in
  (match fused with
  | [ Ir.N_fused steps; Ir.N_window ] ->
      Alcotest.(check int) "all five stages absorbed" 5 (List.length steps);
      Alcotest.(check (list int))
        "step ops in declaration order"
        (List.map
           (fun op -> P.to_id (Pipeline.batch_op_primitive op))
           pipe.Pipeline.batch_ops)
        (List.map (fun s -> P.to_id (F.step_op s)) steps)
  | _ -> Alcotest.failf "unexpected plan: %a" Ir.pp fused);
  Alcotest.(check int) "one switch per segment" 1 (Ir.switch_count fused);
  Alcotest.(check int) "five switches unfused" 5 (Ir.switch_count (Ir.lower pipe))

let test_fuse_barrier_sort () =
  (* Sort is not per-record: fusion must not cross it. *)
  let nodes = List.map (fun op -> Ir.N_op op) [ f_band; f_sort; f_sel; f_proj ] in
  Alcotest.(check (list node))
    "sort splits the chain; lone head stays unfused"
    [ Ir.N_op f_band; Ir.N_op f_sort; Ir.N_fused [ F.F_select { field = 0; value = 3l };
                                                   F.F_project { fields = [| 0; 1; 2 |] } ] ]
    (Ir.fuse nodes)

let test_fuse_barrier_window () =
  (* The window boundary is a hard barrier even between fusable ops. *)
  let nodes = [ Ir.N_op f_band; Ir.N_op f_proj; Ir.N_window; Ir.N_op f_sel; Ir.N_op f_shift ] in
  let fused = Ir.fuse nodes in
  (match fused with
  | [ Ir.N_fused a; Ir.N_window; Ir.N_fused b ] ->
      Alcotest.(check int) "two before" 2 (List.length a);
      Alcotest.(check int) "two after" 2 (List.length b)
  | _ -> Alcotest.failf "fused across the window: %a" Ir.pp fused);
  Alcotest.(check int) "window costs no switch" 2 (Ir.switch_count fused)

let test_fuse_lone_op_stays () =
  (* A single fusable op already costs exactly one switch: no descriptor. *)
  Alcotest.(check (list node))
    "lone op unchanged"
    [ Ir.N_op f_band; Ir.N_window ]
    (Ir.fuse [ Ir.N_op f_band; Ir.N_window ])

let test_fuse_idempotent () =
  let plans =
    [
      [ Ir.N_op f_band; Ir.N_op f_proj; Ir.N_op f_sort; Ir.N_op f_sel; Ir.N_window ];
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

(* --- fused =~ unfused: the headline property -------------------------------- *)

(* Random batch-stage chains over the default 3-field schema.  The pool
   mixes the four fusable per-record ops with Sort (non-fusable), so
   generated chains exercise fusable runs, barriers splitting them, lone
   fusable ops and empty chains. *)
let batch_op_gen =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun hi -> Pipeline.B_filter_band { field = vf; lo = 0l; hi }) (map Int32.of_int (int_range 0 0x3FFFFFFF)));
        (2, map (fun shift -> Pipeline.B_shift_key { field = 0; shift }) (int_range 1 10));
        (2, map (fun value -> Pipeline.B_select { field = 0; value = Int32.of_int value }) (int_range 0 40));
        (2, oneofl [ Pipeline.B_project [| 0; 1; 2 |]; Pipeline.B_project [| 2; 1; 0 |] ]);
        (2, return (Pipeline.B_sort { key_field = 0; secondary_value = None }));
      ])

let chain_gen = QCheck.Gen.(list_size (int_range 0 6) batch_op_gen)

let pp_chain ops =
  Format.asprintf "%a" Ir.pp (List.map (fun op -> Ir.N_op op) ops)

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

let det_cfg ~fuse () =
  Runtime.Config.make ~cores:4 ~deterministic:true ~fuse ()

let frames_for ~windows ~events_per_window ~batch_events =
  Datagen.frames
    (Datagen.default_spec ~windows ~events_per_window ~batch_events ())

let verdict (r : Runtime.run_result) =
  let records = List.concat_map (Log.open_batch ~key:egress_key) r.Runtime.audit in
  let rep = V.verify r.Runtime.verifier_spec records in
  (V.ok rep, rep.V.declared_gaps, List.length rep.V.violations)

let essentials (r : Runtime.run_result) = (r.Runtime.results, verdict r, r.Runtime.loss)

let prop_fused_equals_unfused =
  QCheck.Test.make
    ~name:"fuse on|off x {Des, Domains 2}: sealed results, verdicts, loss identical"
    ~count:8
    (QCheck.make ~print:pp_chain chain_gen)
    (fun ops ->
      let pipe = pipeline_of_chain ops in
      let frames = frames_for ~windows:2 ~events_per_window:800 ~batch_events:200 in
      let run ~fuse engine ?exec_mode () =
        Runtime.run ~engine ?exec_mode ~exec_time_scale:0.0 (det_cfg ~fuse ())
          pipe frames
      in
      let reference = essentials (run ~fuse:false (`Des 4) ()) in
      let fused_des = essentials (run ~fuse:true (`Des 4) ()) in
      let unfused_dom = essentials (run ~fuse:false (`Domains 2) ~exec_mode:`Work ()) in
      let fused_dom = essentials (run ~fuse:true (`Domains 2) ~exec_mode:`Work ()) in
      reference = fused_des && reference = unfused_dom && reference = fused_dom)

(* With fusion on, the recorded audit stream actually contains composite
   records (the property above would also pass if fusion silently never
   engaged). *)
let test_fused_records_present () =
  let pipe = Pipeline.fps_chain () in
  let frames = frames_for ~windows:2 ~events_per_window:1_000 ~batch_events:250 in
  let count_fused cfg =
    let r = Runtime.run ~engine:(`Des 4) cfg pipe frames in
    let records = List.concat_map (Log.open_batch ~key:egress_key) r.Runtime.audit in
    List.length
      (List.filter (function Sbt_attest.Record.Fused _ -> true | _ -> false) records)
  in
  Alcotest.(check int) "no composite records unfused" 0 (count_fused (det_cfg ~fuse:false ()));
  Alcotest.(check bool) "composite records present fused" true
    (count_fused (det_cfg ~fuse:true ()) > 0)

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
          QCheck_alcotest.to_alcotest prop_fused_equals_unfused;
          Alcotest.test_case "fused runs emit composite records" `Quick
            test_fused_records_present;
        ] );
    ]
