module P = Sbt_prim.Primitive
module D = Dataplane

type batch_op =
  | B_sort of { key_field : int; secondary_value : int option }
  | B_filter_band of { field : int; lo : int32; hi : int32 }
  | B_project of int array
  | B_select of { field : int; value : int32 }
  | B_shift_key of { field : int; shift : int }

type wctx = {
  window : int;
  ready : (int * int64) list;
  invoke : ?params:D.param list -> ?retire:bool -> P.t -> int64 list -> int64 list;
  invoke_udf :
    ?retire:bool ->
    ?state_output:bool ->
    name:string ->
    version:int ->
    value_field:int ->
    int64 list ->
    int64 list;
  retire_ref : int64 -> unit;
}

type window_kind = [ `Fixed | `Session of int ]

type t = {
  name : string;
  schema : Event.schema;
  window_size_ticks : int;
  window_slide_ticks : int;
  window_kind : window_kind;
  streams : int;
  batch_ops : batch_op list;
  window_ops : P.t list;
  window_udf_invocations : int;
  udfs : (Udf.t * bytes) list;
  plan : wctx -> int64;
}

let batch_op_primitive = function
  | B_sort _ -> P.Sort
  | B_filter_band _ -> P.Filter_band
  | B_project _ -> P.Project
  | B_select _ -> P.Select
  | B_shift_key _ -> P.Shift_key

let session_gap p = match p.window_kind with `Fixed -> None | `Session g -> Some g

let with_session_gap p ~gap_ticks =
  if gap_ticks <= 0 then invalid_arg "Pipeline.with_session_gap: gap must be positive";
  if p.batch_ops <> [] then
    invalid_arg "Pipeline.with_session_gap: session windows need a pipeline with no batch stages";
  { p with window_kind = `Session gap_ticks }

let verifier_spec ?(late_policy = 0) p =
  {
    Sbt_attest.Verifier.batch_ops = List.map (fun op -> P.to_id (batch_op_primitive op)) p.batch_ops;
    window_ops =
      List.map P.to_id p.window_ops
      @ List.init p.window_udf_invocations (fun _ -> P.udf_id);
    window_size = p.window_size_ticks;
    window_slide = p.window_slide_ticks;
    freshness_bound = None;
    late_policy;
    session_gap = session_gap p;
  }

let default_window = Event.ticks_per_second (* 1-second windows, as in §9.2 *)

let refs_of ready = List.map snd ready
let one = function [ r ] -> r | _ -> invalid_arg "Pipeline: expected a single output"

let win_sum ?(window_size_ticks = default_window) ?window_slide_ticks () =
  {
    name = "WinSum";
    schema = Event.default;
    window_size_ticks;
    window_slide_ticks = Option.value ~default:window_size_ticks window_slide_ticks;
    streams = 1;
    batch_ops = [];
    window_ops = [ P.Sum ];
    window_kind = `Fixed;
    window_udf_invocations = 0;
    udfs = [];
    plan =
      (fun ctx ->
        one (ctx.invoke P.Sum ~params:[ D.P_value_field Event.default.value_field ] (refs_of ctx.ready)));
  }

let filter ?(window_size_ticks = default_window) ?(lo = 0l) ?(hi = 42949672l) () =
  (* Uniform 32-bit values: the default band keeps ~1% (the paper's
     selectivity, after [67]). *)
  {
    name = "Filter";
    schema = Event.default;
    window_size_ticks;
    window_slide_ticks = window_size_ticks;
    streams = 1;
    batch_ops = [ B_filter_band { field = Event.default.value_field; lo; hi } ];
    window_ops = [ P.Concat ];
    window_kind = `Fixed;
    window_udf_invocations = 0;
    udfs = [];
    plan = (fun ctx -> one (ctx.invoke P.Concat (refs_of ctx.ready)));
  }

let fps_chain ?(window_size_ticks = default_window) () =
  (* Filter-Project-Select chain (PR 7): five adjacent per-record batch
     stages, every one fusable, so the fusion pass collapses the whole
     run into a single chain.  One stage at a time, each segment would
     cost five world switches for its batch stages; as a chain, one.  Keys are
     plug-style ids ([house*256 + plug] shape), so shifting by 8 then
     selecting one house id keeps a deterministic ~1/40 slice of the
     positive-value half. *)
  let vf = Event.default.value_field in
  {
    name = "FpsChain";
    schema = Event.default;
    window_size_ticks;
    window_slide_ticks = window_size_ticks;
    streams = 1;
    batch_ops =
      [
        B_filter_band { field = vf; lo = 0l; hi = Int32.max_int };
        B_project [| 0; 1; 2 |];
        B_shift_key { field = 0; shift = 8 };
        B_select { field = 0; value = 5l };
        B_filter_band { field = vf; lo = 0l; hi = 1431655765l };
      ];
    window_ops = [ P.Concat ];
    window_kind = `Fixed;
    window_udf_invocations = 0;
    udfs = [];
    plan = (fun ctx -> one (ctx.invoke P.Concat (refs_of ctx.ready)));
  }

let sorted_batch = B_sort { key_field = Event.default.key_field; secondary_value = None }

let merge_ready ctx =
  one
    (ctx.invoke P.Kway_merge ~params:[ D.P_key_field Event.default.key_field ] (refs_of ctx.ready))

let group_topk ?(window_size_ticks = default_window) ?(k = 10) () =
  {
    name = "TopK";
    schema = Event.default;
    window_size_ticks;
    window_slide_ticks = window_size_ticks;
    streams = 1;
    batch_ops = [ sorted_batch ];
    window_ops = [ P.Kway_merge; P.Top_k_per_key ];
    window_kind = `Fixed;
    window_udf_invocations = 0;
    udfs = [];
    plan =
      (fun ctx ->
        let merged = merge_ready ctx in
        one
          (ctx.invoke P.Top_k_per_key
             ~params:[ D.P_key_field 0; D.P_value_field Event.default.value_field; D.P_k k ]
             [ merged ]));
  }

let distinct ?(window_size_ticks = default_window) () =
  {
    name = "Distinct";
    schema = Event.default;
    window_size_ticks;
    window_slide_ticks = window_size_ticks;
    streams = 1;
    batch_ops = [ sorted_batch ];
    window_ops = [ P.Kway_merge; P.Unique; P.Count ];
    window_kind = `Fixed;
    window_udf_invocations = 0;
    udfs = [];
    plan =
      (fun ctx ->
        let merged = merge_ready ctx in
        let uniq = one (ctx.invoke P.Unique ~params:[ D.P_key_field 0 ] [ merged ]) in
        one (ctx.invoke P.Count [ uniq ]));
  }

let temp_join ?(window_size_ticks = default_window) () =
  {
    name = "Join";
    schema = Event.default;
    window_size_ticks;
    window_slide_ticks = window_size_ticks;
    streams = 2;
    batch_ops = [ sorted_batch ];
    window_ops = [ P.Kway_merge; P.Kway_merge; P.Join ];
    window_kind = `Fixed;
    window_udf_invocations = 0;
    udfs = [];
    plan =
      (fun ctx ->
        let side s = List.filter_map (fun (st, r) -> if st = s then Some r else None) ctx.ready in
        let merge refs = one (ctx.invoke P.Kway_merge ~params:[ D.P_key_field 0 ] refs) in
        let left = merge (side 0) in
        let right = merge (side 1) in
        one
          (ctx.invoke P.Join
             ~params:[ D.P_key_field 0; D.P_value_field Event.default.value_field ]
             [ left; right ]));
  }

let power_grid ?(window_size_ticks = default_window) ?(k = 10) () =
  (* Per-plug average power; plugs above the all-plug average; per-house
     count of such plugs; the K houses with the most (Figure 2 / §9.2). *)
  {
    name = "Power";
    schema = Event.power;
    window_size_ticks;
    window_slide_ticks = window_size_ticks;
    streams = 1;
    batch_ops = [ B_sort { key_field = Event.power.key_field; secondary_value = None } ];
    window_ops =
      [ P.Kway_merge; P.Avg_per_key; P.Average; P.Filter_band; P.Shift_key; P.Count_per_key; P.Top_k ];
    window_kind = `Fixed;
    window_udf_invocations = 0;
    udfs = [];
    plan =
      (fun ctx ->
        let merged =
          one (ctx.invoke P.Kway_merge ~params:[ D.P_key_field Event.power.key_field ] (refs_of ctx.ready))
        in
        let avgs =
          one
            (ctx.invoke P.Avg_per_key
               ~params:[ D.P_key_field 0; D.P_value_field Event.power.value_field ]
               [ merged ])
        in
        (* [avgs] feeds both the global average and the band filter: keep it
           live across the first read. *)
        let global = one (ctx.invoke P.Average ~params:[ D.P_value_field 1 ] ~retire:false [ avgs ]) in
        let high = one (ctx.invoke P.Filter_band ~params:[ D.P_value_field 1 ] [ avgs; global ]) in
        (* plug key = house*256 + plug, so shifting by 8 yields the house id
           and preserves sortedness. *)
        let by_house = one (ctx.invoke P.Shift_key ~params:[ D.P_key_field 0; D.P_shift 8 ] [ high ]) in
        let counts = one (ctx.invoke P.Count_per_key ~params:[ D.P_key_field 0 ] [ by_house ]) in
        one (ctx.invoke P.Top_k ~params:[ D.P_value_field 1; D.P_k k ] [ counts ]));
  }

let union_count ?(window_size_ticks = default_window) () =
  {
    name = "UnionCount";
    schema = Event.default;
    window_size_ticks;
    window_slide_ticks = window_size_ticks;
    streams = 2;
    batch_ops = [];
    window_ops = [ P.Concat; P.Count ];
    window_kind = `Fixed;
    window_udf_invocations = 0;
    udfs = [];
    plan =
      (fun ctx ->
        (* Union: all segments of both streams feed one Concat. *)
        let all = one (ctx.invoke P.Concat (refs_of ctx.ready)) in
        one (ctx.invoke P.Count [ all ]));
  }

let load_predict ?(window_size_ticks = default_window) ?(alpha_percent = 50) () =
  if alpha_percent < 0 || alpha_percent > 100 then
    invalid_arg "Pipeline.load_predict: alpha_percent must be in [0, 100]";
  (* EWMA as a certified Combine2 UDF: prev prediction x current average
     -> new prediction, in integer arithmetic. *)
  let alpha = Int64.of_int alpha_percent in
  let ewma =
    {
      Udf.name = "ewma";
      version = 1;
      body =
        Udf.Combine2
          (fun prev cur ->
            Int64.to_int32
              (Int64.div
                 (Int64.add
                    (Int64.mul (Int64.sub 100L alpha) (Int64.of_int32 prev))
                    (Int64.mul alpha (Int64.of_int32 cur)))
                 100L));
    }
  in
  let cert =
    Udf.certificate_bytes
      (Udf.certify ~key:(Bytes.of_string "sbt-egress-key16") ewma)
  in
  (* Cross-window operator state: the previous window's predictions, held
     in a State-scope uArray and replaced each window. *)
  let state : int64 option ref = ref None in
  {
    name = "LoadPredict";
    schema = Event.power;
    window_size_ticks;
    window_slide_ticks = window_size_ticks;
    streams = 1;
    batch_ops = [ B_sort { key_field = Event.power.key_field; secondary_value = None } ];
    window_ops = [ P.Kway_merge; P.Avg_per_key; P.Shift_key; P.Avg_per_key; P.Join ];
    window_kind = `Fixed;
    window_udf_invocations = 1;
    udfs = [ (ewma, cert) ];
    plan =
      (fun ctx ->
        let merged =
          one
            (ctx.invoke P.Kway_merge
               ~params:[ D.P_key_field Event.power.key_field ]
               (refs_of ctx.ready))
        in
        (* Per-plug averages, coarsened to houses, then per-house average
           load for this window. *)
        let plug_avgs =
          one
            (ctx.invoke P.Avg_per_key
               ~params:[ D.P_key_field 0; D.P_value_field Event.power.value_field ]
               [ merged ])
        in
        let by_house =
          one (ctx.invoke P.Shift_key ~params:[ D.P_key_field 0; D.P_shift 8 ] [ plug_avgs ])
        in
        let house_avgs =
          one (ctx.invoke P.Avg_per_key ~params:[ D.P_key_field 0; D.P_value_field 1 ] [ by_house ])
        in
        (* Join previous predictions with this window's averages.  On the
           first window the state is the current averages themselves
           (ewma(a, a) = a keeps the declared op multiset identical). *)
        let prev = Option.value ~default:house_avgs !state in
        let joined =
          one
            (ctx.invoke P.Join ~retire:false
               ~params:[ D.P_key_field 0; D.P_value_field 1 ]
               [ prev; house_avgs ])
        in
        (match !state with
        | Some st -> ctx.retire_ref st
        | None -> ());
        ctx.retire_ref house_avgs;
        let predictions =
          one
            (ctx.invoke_udf ~state_output:true ~name:"ewma" ~version:1 ~value_field:1 [ joined ])
        in
        state := Some predictions;
        predictions);
  }

let keyed_pipeline name op extra_params ?(window_size_ticks = default_window) () =
  {
    name;
    schema = Event.default;
    window_size_ticks;
    window_slide_ticks = window_size_ticks;
    streams = 1;
    batch_ops = [ sorted_batch ];
    window_ops = [ P.Kway_merge; op ];
    window_kind = `Fixed;
    window_udf_invocations = 0;
    udfs = [];
    plan =
      (fun ctx ->
        let merged = merge_ready ctx in
        one
          (ctx.invoke op
             ~params:([ D.P_key_field 0; D.P_value_field Event.default.value_field ] @ extra_params)
             [ merged ]));
  }

let sum_per_key ?window_size_ticks () =
  keyed_pipeline "SumPerKey" P.Sum_per_key [] ?window_size_ticks ()

let avg_per_key ?window_size_ticks () =
  keyed_pipeline "AvgPerKey" P.Avg_per_key [] ?window_size_ticks ()

let median_per_key ?window_size_ticks () =
  keyed_pipeline "MedianPerKey" P.Median_per_key [] ?window_size_ticks ()

let count_by_window ?(window_size_ticks = default_window) () =
  {
    name = "CountByWindow";
    schema = Event.default;
    window_size_ticks;
    window_slide_ticks = window_size_ticks;
    streams = 1;
    batch_ops = [];
    window_ops = [ P.Concat; P.Count ];
    window_kind = `Fixed;
    window_udf_invocations = 0;
    udfs = [];
    plan =
      (fun ctx ->
        let all = one (ctx.invoke P.Concat (refs_of ctx.ready)) in
        one (ctx.invoke P.Count [ all ]));
  }

let vitals ?(window_size_ticks = default_window) () =
  (* Medical telemetry (after the TEE medical-streaming case study):
     per-patient vital averages per window.  Deliberately has no batch
     stages — all work happens at window close over whatever segments are
     ready — so a correction re-run over {originals + late arrivals} is
     just the same plan on a longer ready list.  Concat order varies with
     arrival order; the in-window Sort re-canonicalizes, and Avg_per_key
     folds each key run order-independently, so the sealed output bytes
     depend only on the window's event multiset.  That is what makes the
     retract-and-reemit convergence property (disorder-permuted input ==
     in-order run, byte for byte) provable rather than aspirational. *)
  {
    name = "Vitals";
    schema = Event.default;
    window_size_ticks;
    window_slide_ticks = window_size_ticks;
    window_kind = `Fixed;
    streams = 1;
    batch_ops = [];
    window_ops = [ P.Concat; P.Sort; P.Avg_per_key ];
    window_udf_invocations = 0;
    udfs = [];
    plan =
      (fun ctx ->
        let all = one (ctx.invoke P.Concat (refs_of ctx.ready)) in
        let sorted = one (ctx.invoke P.Sort ~params:[ D.P_key_field 0 ] [ all ]) in
        one
          (ctx.invoke P.Avg_per_key
             ~params:[ D.P_key_field 0; D.P_value_field Event.default.value_field ]
             [ sorted ]));
  }

let min_max ?(window_size_ticks = default_window) () =
  {
    name = "MinMax";
    schema = Event.default;
    window_size_ticks;
    window_slide_ticks = window_size_ticks;
    streams = 1;
    batch_ops = [];
    window_ops = [ P.Concat; P.Min_max ];
    window_kind = `Fixed;
    window_udf_invocations = 0;
    udfs = [];
    plan =
      (fun ctx ->
        let all = one (ctx.invoke P.Concat (refs_of ctx.ready)) in
        one (ctx.invoke P.Min_max ~params:[ D.P_value_field Event.default.value_field ] [ all ]));
  }
