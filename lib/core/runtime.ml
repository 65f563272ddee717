module D = Dataplane
module Trace = Sbt_sim.Trace
module Des = Sbt_sim.Des

type config = {
  dp_config : D.config;
  cores : int;
  hints_enabled : bool;
}

module Config = struct
  type t = config

  let make ?version ?(cores = 8) ?secure_mb ?cost ?deterministic ?platform ?alloc_mode
      ?ingress_key ?egress_key ?backpressure_threshold ?seed ?fault_plan ?late_policy ?tracer
      ?(hints_enabled = true) () =
    let dp_config =
      D.Config.make ?version ~cores ?secure_mb ?cost ?deterministic ?platform ?alloc_mode
        ?ingress_key ?egress_key ?backpressure_threshold ?seed ?fault_plan ?late_policy ?tracer ()
    in
    { dp_config; cores; hints_enabled }
end

module Loss = struct
  type t = { gaps_declared : int; batches_dropped : int; events_dropped : int }

  let v ~gaps_declared ~batches_dropped ~events_dropped =
    { gaps_declared; batches_dropped; events_dropped }

  let gaps_declared t = t.gaps_declared
  let batches_dropped t = t.batches_dropped
  let events_dropped t = t.events_dropped
end

exception
  Crashed of {
    site : Sbt_fault.Fault.site;
    uploads : Sbt_attest.Log.batch list;  (** durable at crash, oldest first *)
    results : (int * Dataplane.sealed_result) list;  (** egressed before the crash *)
  }

(* A fleet-scheduled stop at a checkpoint boundary: like [Crash_reboot]
   (checkpoint durable, in-TEE state lost) but requested by the caller —
   the fleet runner uses it to fell a node at a given virtual-time beat.
   Internal: [Node.boot] turns it into an [outcome]. *)
exception
  Halted_at of {
    uploads : Sbt_attest.Log.batch list;
    results : (int * Dataplane.sealed_result) list;
    vt_ns : float;
  }

type run_result = {
  results : (int * D.sealed_result) list;
  corrections : (int * int * D.sealed_result) list;
      (* (window, gen, sealed) — superseding re-emissions under the
         retract-and-reemit late policy, in emission order *)
  trace : Trace.t;
  dp_stats : D.stats;
  pool_high_water_bytes : int;
  mem_samples_bytes : int list;
  audit : Sbt_attest.Log.batch list;
  verifier_spec : Sbt_attest.Verifier.spec;
  makespan_ns : float;
  total_events : int;
  tasks_executed : int;
  live_refs_after : int;
  loss : Loss.t;
  registry : Sbt_obs.Metrics.t;
  tee_metrics : bytes;
  tee_quote : Sbt_attest.Quote.quote;
}

(* --- control state -----------------------------------------------------------

   Everything the control plane carries from frame to frame, in one
   record.  The same record is the opaque [control] section of a sealed
   checkpoint: the data plane seals it without interpreting it, and only
   a successfully unsealed checkpoint can hand it back.  References
   inside window states are the same opaque 64-bit values the restored
   data plane re-binds, so the rebuilt control state points at exactly
   the arrays it did before the crash. *)

type win_state = {
  mutable ready : (int * int64) list; (* (stream, ref), newest first *)
  mutable dep_tasks : (Des.task * int) list; (* tasks (and trace indices) preceding the close *)
  mutable last_ready : (int * int64) list; (* per-stream chain anchors for consumed-after hints *)
}

type control = {
  mutable frame_idx : int; (* absolute index of the next frame to ingest *)
  mutable base_ns : float; (* virtual time the next segment starts at *)
  mutable next_window_to_close : int;
  mutable total_events : int;
  mutable cum_events : int;
  mutable gaps_declared : int;
  mutable batches_dropped : int;
  mutable events_dropped : int;
  mutable wm_audit_ref : int; (* audit id of the newest watermark *)
  expected_seq : (int, int) Hashtbl.t; (* per-stream next expected frame seq *)
  windows : (int, win_state) Hashtbl.t;
}

let new_control () =
  {
    frame_idx = 0;
    base_ns = 0.0;
    next_window_to_close = 0;
    total_events = 0;
    cum_events = 0;
    gaps_declared = 0;
    batches_dropped = 0;
    events_dropped = 0;
    wm_audit_ref = 0;
    expected_seq = Hashtbl.create 4;
    windows = Hashtbl.create 64;
  }

module C = Sbt_recovery.Codec

let put_sref w (s, r) =
  C.int_ w s;
  C.i64 w r

let get_sref r =
  let s = C.get_int r in
  let v = C.get_i64 r in
  (s, v)

let sorted_bindings tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort (fun (a, _) (b, _) -> compare a b)

(* Open windows only, ascending; closed ones are no resume state. *)
let encode_control c =
  let w = C.writer () in
  C.int_ w c.frame_idx;
  C.f64 w c.base_ns;
  List.iter (C.int_ w)
    [
      c.next_window_to_close;
      c.total_events;
      c.cum_events;
      c.gaps_declared;
      c.batches_dropped;
      c.events_dropped;
      c.wm_audit_ref;
    ];
  C.list_ w
    (fun w (s, n) ->
      C.int_ w s;
      C.int_ w n)
    (sorted_bindings c.expected_seq);
  C.list_ w
    (fun w (win, ws) ->
      C.int_ w win;
      C.list_ w put_sref ws.ready;
      C.list_ w put_sref ws.last_ready)
    (List.filter (fun (win, _) -> win >= c.next_window_to_close) (sorted_bindings c.windows));
  C.contents w

(* Restored windows keep their ready/last-ready structure and start with
   no dep tasks: the checkpoint boundary drained its segment, so there is
   nothing scheduled to depend on. *)
let decode_control blob =
  let r = C.reader blob in
  let c = new_control () in
  c.frame_idx <- C.get_int r;
  c.base_ns <- C.get_f64 r;
  c.next_window_to_close <- C.get_int r;
  c.total_events <- C.get_int r;
  c.cum_events <- C.get_int r;
  c.gaps_declared <- C.get_int r;
  c.batches_dropped <- C.get_int r;
  c.events_dropped <- C.get_int r;
  c.wm_audit_ref <- C.get_int r;
  List.iter
    (fun (s, n) -> Hashtbl.replace c.expected_seq s n)
    (C.get_list r (fun r ->
         let s = C.get_int r in
         let n = C.get_int r in
         (s, n)));
  List.iter
    (fun (w, ready, last_ready) ->
      Hashtbl.replace c.windows w { ready; dep_tasks = []; last_ready })
    (C.get_list r (fun r ->
         let w = C.get_int r in
         let ready = C.get_list r get_sref in
         let last_ready = C.get_list r get_sref in
         (w, ready, last_ready)));
  if not (C.at_end r) then invalid_arg "Runtime.decode_control: trailing bytes";
  c

(* --- the recording loop ----------------------------------------------------

   The one engine: the control plane runs for real and every data-plane
   effect happens once, serially, while the DES schedules the task graph
   on [cfg.cores] virtual cores.  Sealed results, audit bytes and
   verdicts all come from this pass.  A resumed boot passes the restored
   data plane and the checkpoint's control state; its frames start at
   that state's [frame_idx]. *)

let record ?ckpt_every ?on_checkpoint ?resume ?registry ?halt_after_window cfg
    (pipe : Pipeline.t) frames =
  let dp, c =
    match resume with
    | None -> (D.create cfg.dp_config, new_control ())
    | Some (rt, c) -> (rt, c)
  in
  (* Retract-and-reemit re-runs the window plan over {original + late}
     segments, so those segments must reach the plan unmodified; batch
     stages would have consumed them long before the close. *)
  if cfg.dp_config.D.late_policy = D.Retract_reemit && pipe.Pipeline.batch_ops <> [] then
    invalid_arg "Runtime: retract-and-reemit needs a pipeline with no batch stages";
  (* A checkpoint seals neither the late-data bookkeeping a non-silent
     policy audits nor the in-TEE session-window table, so a resumed boot
     could not reproduce either. *)
  if
    ckpt_every <> None
    && (cfg.dp_config.D.late_policy <> D.Silent || Pipeline.session_gap pipe <> None)
  then
    invalid_arg
      "Runtime: checkpointed runs need the silent late policy and fixed windows \
       (a checkpoint carries no late-data or session-window state)";
  D.set_ingest_width dp pipe.Pipeline.schema.Event.width;
  let platform = cfg.dp_config.D.platform in
  let cost = platform.Sbt_tz.Platform.cost in
  let tracer = cfg.dp_config.D.tracer in
  (* The DES inherits the platform's host_scale so that at host_scale 0
     the whole schedule — and every audit timestamp derived from it — is
     free of host noise (what the observer-effect tests rely on). *)
  let fresh_des () =
    Des.create ?tracer ~host_scale:cost.Sbt_tz.Cost_model.host_scale ~cores:cfg.cores ()
  in
  (* With checkpointing, the run is split into segments at checkpoint
     boundaries: each segment drains its own DES, and the next segment's
     tasks are released no earlier than the accumulated makespan.  The
     segmentation — hence the schedule, hence every audit timestamp — is a
     function of [ckpt_every] alone, so a crashed-and-recovered run and an
     uninterrupted run with the same interval produce identical bytes. *)
  let des = ref (fresh_des ()) in
  let tasks_total = ref 0 in
  (* Deterministic crash injection: the fault plan names a site and how
     many control tasks may complete this boot before it fires. *)
  let crash_arm = Sbt_fault.Fault.crash_after cfg.dp_config.D.fault_plan in
  let executed_tasks = ref 0 in
  (* Normal-world registry: always on (counting is deterministic and
     cheap); the tracer alone is optional.  A caller-supplied (possibly
     scoped) registry lets M fleet nodes share one store. *)
  let reg = match registry with Some r -> r | None -> Sbt_obs.Metrics.create () in
  let c_frames = Sbt_obs.Metrics.counter reg "control.frames" in
  let c_gaps = Sbt_obs.Metrics.counter reg "control.gaps_declared" in
  let c_batches_dropped = Sbt_obs.Metrics.counter reg "control.batches_dropped" in
  let c_events_dropped = Sbt_obs.Metrics.counter reg "control.events_dropped" in
  let c_sheds = Sbt_obs.Metrics.counter reg "control.sheds_observed" in
  let c_busy = Sbt_obs.Metrics.counter reg "control.smc_busy" in
  let c_closes = Sbt_obs.Metrics.counter reg "control.windows_closed" in
  let h_stall = Sbt_obs.Metrics.histogram reg "control.ingest_stall_ns" in
  (* Control-plane instants ride the secure clock (set by the enclosing
     DES task), so they are virtual-time like everything else. *)
  let instant ?args name =
    match tracer with
    | None -> ()
    | Some tr ->
        Sbt_obs.Tracer.instant tr ?args ~pid:0 ~tid:0 ~cat:"control" ~name
          ~ts_ns:(D.now_ns dp) ()
  in
  (* Trace assembly: one pending node per DES task, costs filled after run. *)
  let pending_nodes :
      (string * Des.task * int list * int option * Trace.role) list ref =
    ref []
  in
  let node_count = ref 0 in
  let win w =
    match Hashtbl.find c.windows w with
    | ws -> ws
    | exception Not_found ->
        let ws = { ready = []; dep_tasks = []; last_ready = [] } in
        Hashtbl.replace c.windows w ws;
        ws
  in
  let results = ref [] in
  let corrections = ref [] in
  (* Under retract-and-reemit, plan inputs and intermediates stay live
     past the close (a later correction re-runs the plan over them). *)
  let protect = cfg.dp_config.D.late_policy = D.Retract_reemit in
  let correction_gen : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let max_wm_seen = ref 0 in
  let mem_samples = ref [] in
  (* Wrap a work function with secure-clock propagation and modeled-cost
     extraction (world switches, boundary copies, crypto scaling, stalls). *)
  let add_task ?(deps = []) ?arrival ?(role = Trace.Plain) ~label body =
    let idx = !node_count in
    incr node_count;
    let work ~start_ns =
      (match crash_arm with
      | Some (Sbt_fault.Fault.Crash_control, after) when !executed_tasks >= after ->
          raise (Sbt_fault.Fault.Crash Sbt_fault.Fault.Crash_control)
      | _ -> ());
      D.set_now_ns dp start_ns;
      let switch0 = platform.Sbt_tz.Platform.modeled_switch_ns
      and copy0 = platform.Sbt_tz.Platform.modeled_copy_ns
      and crypto0 = D.crypto_ns dp in
      let r = body () in
      incr executed_tasks;
      let switch_delta = platform.Sbt_tz.Platform.modeled_switch_ns -. switch0 in
      let copy_delta = platform.Sbt_tz.Platform.modeled_copy_ns -. copy0 in
      let crypto_delta = D.crypto_ns dp -. crypto0 in
      let crypto_adjust =
        crypto_delta *. (cost.Sbt_tz.Cost_model.crypto_scale -. 1.0)
        *. cost.Sbt_tz.Cost_model.host_scale
      in
      switch_delta +. copy_delta +. crypto_adjust +. r
    in
    (* Segments start at the accumulated virtual time; within the first
       (or only) segment this is 0 and scheduling is unconstrained, as
       before checkpointing existed. *)
    let not_before = c.base_ns in
    let deps_tasks = List.map fst deps in
    let task = Des.schedule !des ~deps:deps_tasks ~not_before ~label ~work () in
    pending_nodes := (label, task, List.map snd deps, arrival, role) :: !pending_nodes;
    (task, idx)
  in
  (* --- batch-stage execution -------------------------------------------- *)
  let hint_for ws stream =
    if not cfg.hints_enabled then []
    else
      match List.assoc stream ws.last_ready with
      | r -> [ D.H_after r ]
      | exception Not_found -> [ D.H_parallel ]
  in
  let add_ready ws stream r =
    let e = (stream, r) in
    ws.ready <- e :: ws.ready;
    ws.last_ready <- e :: List.remove_assoc stream ws.last_ready
  in
  (* Each window's stage hints for a frame of [stream]. *)
  let rec stage_hints stream = function
    | [] -> []
    | w :: rest -> (w, hint_for (win w) stream) :: stage_hints stream rest
  in
  (* The batch-stage plan, lowered and fused once per run: each chain is
     a single stage or a run of adjacent per-record stages, and the batch
     call runs them in order on every open segment. *)
  let batch_plan =
    List.filter_map
      (function Ir.N_invoke chain -> Some chain | Ir.N_window -> None)
      (Ir.fuse (Ir.lower pipe))
  in
  let segment_params =
    [
      D.P_window_size pipe.Pipeline.window_size_ticks;
      D.P_slide pipe.Pipeline.window_slide_ticks;
      D.P_ts_field pipe.Pipeline.schema.Event.ts_field;
    ]
    @ match Pipeline.session_gap pipe with Some g -> [ D.P_session_gap g ] | None -> []
  in
  (* A segment of a window that had closed when its batch was scheduled:
     the late policy decides what becomes of it. *)
  let late stream (o : D.output) =
    match cfg.dp_config.D.late_policy with
    | D.Silent ->
        (* reclaim its memory, leave its audit trail unconsumed —
           precisely because the drop is silent, the cloud verifier flags
           the incident *)
        D.call dp (D.R_retire { input = o.D.ref_ })
    | D.Drop_declare ->
        (* the drop becomes a signed Late_drop audit fact: declared
           degradation, not silence *)
        D.call dp (D.R_late_drop { input = o.D.ref_; window = o.D.win })
    | D.Retract_reemit ->
        (* the late segment joins the closed window's (still live) ready
           list; the correction task scheduled with the batch re-runs the
           plan *)
        add_ready (win o.D.win) stream o.D.ref_
  in
  (* --- frame loop -------------------------------------------------------- *)
  (* Certified UDFs ship with the pipeline install. *)
  List.iter (fun (udf, cert) -> D.call dp (D.R_install_udf { udf; cert })) pipe.Pipeline.udfs;
  (* --- graceful degradation --------------------------------------------- *)
  let plan = cfg.dp_config.D.fault_plan in
  let declare_gap ~stream ~seq ~events ~windows ~reason =
    D.call dp (D.R_declare_gap { stream; seq; events; windows; reason });
    c.gaps_declared <- c.gaps_declared + 1;
    Sbt_obs.Metrics.incr c_gaps;
    instant "gap"
      ~args:
        [
          ("stream", Sbt_obs.Tracer.Int stream);
          ("seq", Sbt_obs.Tracer.Int seq);
          ("events", Sbt_obs.Tracer.Int events);
        ]
  in
  (* Next expected frame seq per stream: a jump means the link dropped
     frames, which the edge must declare before ingesting past the hole —
     otherwise the verifier reads the hole as tampering. *)
  let link_holes ~stream ~seq =
    let exp = try Hashtbl.find c.expected_seq stream with Not_found -> 0 in
    Hashtbl.replace c.expected_seq stream (max (seq + 1) exp);
    if seq > exp then List.init (seq - exp) (fun i -> exp + i) else []
  in
  (* The batch call with bounded retry against transient SMC refusals.
     Returns [Ok (outputs, stall)] or [Error (stall, reason)]: every
     refusal of the ingest is a declared gap.  A rejection raised once the
     frame is in (by Segment or a stage) is no refusal, and escapes the
     run. *)
  let rec ingest_with_retry req ~stream ~seq n stall =
    match D.call dp req with
    | D.Ingested { outs; stalled_ns } -> Ok (outs, stall +. stalled_ns)
    | D.Refused { reason = D.Corrupt_ingress; stalled_ns } ->
        Error (stall +. stalled_ns, Sbt_attest.Record.Corrupt_ingress)
    | D.Refused { reason = D.Pool_pressure; stalled_ns } ->
        Sbt_obs.Metrics.incr c_sheds;
        instant "shed"
          ~args:[ ("stream", Sbt_obs.Tracer.Int stream); ("seq", Sbt_obs.Tracer.Int seq) ];
        Error (stall +. stalled_ns, Sbt_attest.Record.Pool_pressure)
    | exception Sbt_tz.Smc.Entry_busy _ ->
        Sbt_obs.Metrics.incr c_busy;
        if n < plan.Sbt_fault.Fault.retry_budget then
          let backoff = Sbt_fault.Fault.backoff_ns plan ~stream ~seq ~attempt:(n + 1) in
          ingest_with_retry req ~stream ~seq (n + 1) (stall +. backoff)
        else Error (stall, Sbt_attest.Record.Smc_unavailable)
  in
  (* Windows egress in watermark order: each close depends on the previous
     one, which also serializes any cross-window operator state. *)
  let last_close = ref None in
  (* --- checkpointing ------------------------------------------------------ *)
  let last_ckpt_window = ref c.next_window_to_close in
  let crashed site =
    raise (Crashed { site; uploads = D.uploaded_batches dp; results = List.rev !results })
  in
  let drain_segment () =
    (try Des.run !des with Sbt_fault.Fault.Crash site -> crashed site);
    tasks_total := !tasks_total + Des.tasks_executed !des;
    c.base_ns <- Float.max c.base_ns (Des.makespan_ns !des)
  in
  (* Quiesce: drain everything scheduled so far, then start a fresh DES
     for the next segment.  Cross-segment orderings (previous close,
     stages feeding a close) are enforced by [base_ns] rather than task
     dependencies, so the drained task handles can be dropped. *)
  let quiesce () =
    drain_segment ();
    des := fresh_des ();
    Hashtbl.iter (fun _ ws -> ws.dep_tasks <- []) c.windows;
    last_close := None;
    D.set_now_ns dp c.base_ns
  in
  (* The shared window-plan execution path, used by ordinary closes,
     session closes and retract-and-reemit corrections.  Under the
     protecting policy every invocation runs with [retire_inputs:false]
     and the produced intermediates are swept after sealing — minus the
     result (retired by the seal itself) and anything the plan retired
     explicitly — so the window's ready segments outlive the close and a
     later correction can re-run the plan over {originals + late}. *)
  let run_plan_and_seal ~w ~ready ~seal =
    (* The window's triggering watermark rides on its first invocation. *)
    let trigger_used = ref false in
    let trigger () =
      if !trigger_used then None
      else begin
        trigger_used := true;
        Some c.wm_audit_ref
      end
    in
    let produced = ref [] in
    let explicit = ref [] in
    let plain_retire r = D.call dp (D.R_retire { input = r }) in
    let retire_inputs retire = retire && not protect in
    let invoke ?(params = []) ?(retire = true) op inputs =
      let trigger = trigger () in
      let outs =
        D.call dp
          (D.R_invoke
             {
               chain = [ (op, params) ];
               inputs;
               trigger;
               hints = [];
               retire_inputs = retire_inputs retire;
             })
      in
      let refs = List.map (fun (o : D.output) -> o.D.ref_) outs in
      if protect then produced := refs @ !produced;
      refs
    in
    let invoke_udf ?(retire = true) ?(state_output = false) ~name ~version ~value_field inputs =
      let trigger = trigger () in
      let out =
        D.call dp
          (D.R_invoke_udf
             {
               name;
               version;
               inputs;
               trigger;
               value_field;
               hints = [];
               retire_inputs = retire_inputs retire;
               state_output;
             })
      in
      if protect then produced := out.D.ref_ :: !produced;
      [ out.D.ref_ ]
    in
    let retire_ref r =
      plain_retire r;
      if protect then explicit := r :: !explicit
    in
    let ctx = { Pipeline.window = w; ready; invoke; invoke_udf; retire_ref } in
    (* Sample steady memory while the window's data is still live
       (before the plan consumes it). *)
    mem_samples := D.pool_committed_bytes dp :: !mem_samples;
    let result_ref = pipe.Pipeline.plan ctx in
    seal result_ref;
    if protect then
      List.iter
        (fun r -> if r <> result_ref && not (List.mem r !explicit) then plain_retire r)
        (List.rev !produced)
  in
  let run_close w ws =
    Sbt_obs.Metrics.incr c_closes;
    instant "window-close" ~args:[ ("win", Sbt_obs.Tracer.Int w) ];
    if ws.ready = [] then
      (* Every batch of this window was lost and declared as a gap:
         degrade by producing no result rather than invoking the plan on
         nothing. *)
      0.0
    else begin
      run_plan_and_seal ~w ~ready:(List.rev ws.ready) ~seal:(fun result_ref ->
          results := (w, D.call dp (D.R_egress { input = result_ref; window = w })) :: !results);
      0.0
    end
  in
  (* A window's close waits for its watermark, the previous close and
     every batch that fed it. *)
  let schedule_close ~wm ~label w ws =
    let deps = wm :: (Option.to_list !last_close @ ws.dep_tasks) in
    last_close :=
      Some (add_task ~deps ~role:(Trace.Egress_of w) ~label (fun () -> run_close w ws))
  in
  let take_checkpoint ~watermark =
    quiesce ();
    let { D.blob; seq } = D.call dp (D.R_checkpoint { control = encode_control c; watermark }) in
    last_ckpt_window := c.next_window_to_close;
    instant "checkpoint"
      ~args:[ ("seq", Sbt_obs.Tracer.Int seq); ("bytes", Sbt_obs.Tracer.Int (Bytes.length blob)) ];
    (match on_checkpoint with Some f -> f ~blob ~seq ~frame_idx:c.frame_idx | None -> ());
    (* A reboot crash is modeled at the boundary where TEE state is lost
       with the checkpoint already durable: right after persisting it. *)
    (match crash_arm with
    | Some (Sbt_fault.Fault.Crash_reboot, after) when !executed_tasks >= after ->
        crashed Sbt_fault.Fault.Crash_reboot
    | _ -> ());
    (* A scheduled halt stops the node at the same durable boundary: the
       checkpoint just persisted is exactly where a resume (or a handoff
       recipient) picks up, so the stitched run stays byte-identical. *)
    match halt_after_window with
    | Some h when c.next_window_to_close > h ->
        raise
          (Halted_at
             { uploads = D.uploaded_batches dp; results = List.rev !results; vt_ns = c.base_ns })
    | Some _ | None -> ()
  in
  (* A batch call's segments: late ones to the late policy, the others
     ready for their window's close. *)
  let rec deliver ~closed_below ~stream = function
    | [] -> ()
    | (o : D.output) :: rest ->
        if o.D.win < closed_below then late stream o else add_ready (win o.D.win) stream o.D.ref_;
        deliver ~closed_below ~stream rest
  in
  (* One frame's batch call, as its DES task runs it: one world switch
     ingests, runs Segment and the batch plan on every segment whose
     window is still open. *)
  let batch_call ~stream ~seq ~events ~frame_windows ~payload ~encrypted ~mac ~holes ~closed_below
      () =
    (* Frames the link lost before this one: declared first so
       the audit log vouches for the hole in stream order. *)
    if holes <> [] then
      List.iter
        (fun missing ->
          c.batches_dropped <- c.batches_dropped + 1;
          Sbt_obs.Metrics.incr c_batches_dropped;
          declare_gap ~stream ~seq:missing ~events:0 ~windows:[]
            ~reason:Sbt_attest.Record.Link_loss)
        holes;
    let windowing =
      Some
        {
          D.segment = segment_params;
          first_open = closed_below;
          plan = batch_plan;
          stage_hints = stage_hints stream frame_windows;
        }
    in
    let req = D.R_ingest_events { payload; encrypted; stream; seq; mac; windowing } in
    match ingest_with_retry req ~stream ~seq 0 0.0 with
    | Ok (outs, stalled_ns) ->
        deliver ~closed_below ~stream outs;
        Sbt_obs.Metrics.observe h_stall stalled_ns;
        stalled_ns
    | Error (stalled_ns, reason) ->
        (* Past the retry budget / rejected / shed: degrade by
           dropping the batch and leaving a signed gap. *)
        c.batches_dropped <- c.batches_dropped + 1;
        Sbt_obs.Metrics.incr c_batches_dropped;
        c.events_dropped <- c.events_dropped + events;
        Sbt_obs.Metrics.add c_events_dropped events;
        declare_gap ~stream ~seq ~events ~windows:frame_windows ~reason;
        Sbt_obs.Metrics.observe h_stall stalled_ns;
        stalled_ns
  in
  List.iter
    (fun frame ->
      c.frame_idx <- c.frame_idx + 1;
      match frame with
      | Sbt_net.Frame.Events
          { seq; stream; events; windows = frame_windows; payload; encrypted; mac } ->
          let arrival = c.cum_events + events in
          c.cum_events <- arrival;
          c.total_events <- c.total_events + events;
          Sbt_obs.Metrics.incr c_frames;
          let holes = link_holes ~stream ~seq in
          (* Windows already closed when this batch was scheduled: data for
             them is late (the source broke the watermark contract).  The
             batch call hands their segments back unstaged, and the late
             policy decides what becomes of them. *)
          let closed_below = c.next_window_to_close in
          let batch =
            add_task ~arrival
              ~label:("batch:" ^ string_of_int stream ^ "." ^ string_of_int seq)
              (batch_call ~stream ~seq ~events ~frame_windows ~payload ~encrypted ~mac ~holes
                 ~closed_below)
          in
          List.iter
            (fun w ->
              let ws = win w in
              ws.dep_tasks <- batch :: ws.dep_tasks)
            frame_windows;
          (* Retract-and-reemit: windows this frame touches that already
             closed get a correction scheduled right here, at
             graph-construction time, from the frame's own window
             metadata.  The correction chains behind the batch task (which
             routes the late segments into the window's ready list) and
             the previous close/correction, so generations stay ordered
             and contiguous. *)
          if protect then
            List.filter (fun w -> w < closed_below) frame_windows
            |> List.sort_uniq compare
            |> List.iter (fun w ->
                   let deps =
                     batch :: Option.to_list !last_close
                   in
                   let corr_task, corr_idx =
                     add_task ~deps ~role:(Trace.Egress_of w)
                       ~label:(Printf.sprintf "correct:w%d" w)
                       (fun () ->
                         match Hashtbl.find_opt c.windows w with
                         | None -> 0.0 (* the late batch was lost: nothing to correct *)
                         | Some ws when ws.ready = [] -> 0.0
                         | Some ws ->
                             let gen =
                               1 + Option.value ~default:0 (Hashtbl.find_opt correction_gen w)
                             in
                             Hashtbl.replace correction_gen w gen;
                             instant "window-correct"
                               ~args:
                                 [
                                   ("win", Sbt_obs.Tracer.Int w);
                                   ("gen", Sbt_obs.Tracer.Int gen);
                                 ];
                             run_plan_and_seal ~w ~ready:(List.rev ws.ready)
                               ~seal:(fun result_ref ->
                                 let sealed =
                                   D.call dp
                                     (D.R_egress_correction
                                        { input = result_ref; window = w; gen })
                                 in
                                 corrections := (w, gen, sealed) :: !corrections);
                             0.0)
                   in
                   last_close := Some (corr_task, corr_idx))
      | Sbt_net.Frame.Watermark { seq; value } ->
          let arrival = c.cum_events in
          if value > !max_wm_seen then max_wm_seen := value;
          let wm =
            add_task ~arrival ~label:(Printf.sprintf "watermark:%d" seq) (fun () ->
                c.wm_audit_ref <- D.call dp (D.R_ingest_watermark { value });
                0.0)
          in
          (* Close, in order, every window whose end has passed.  Session
             windows are exempt: which sessions exist is in-TEE state the
             control plane only learns after the windowing tasks run, so
             their closes are scheduled after the last frame instead. *)
          while
            Pipeline.session_gap pipe = None
            && (c.next_window_to_close * pipe.Pipeline.window_slide_ticks)
               + pipe.Pipeline.window_size_ticks
               <= value
          do
            let w = c.next_window_to_close in
            c.next_window_to_close <- w + 1;
            match Hashtbl.find_opt c.windows w with
            | None -> () (* empty window: nothing to do *)
            | Some ws ->
                ignore
                  (add_task ~deps:[ wm ] ~arrival ~role:(Trace.Watermark_arrival w)
                     ~label:(Printf.sprintf "wm-arrive:w%d" w)
                     (fun () -> 0.0));
                schedule_close ~wm ~label:(Printf.sprintf "close:w%d" w) w ws
          done;
          (match ckpt_every with
          | Some every when c.next_window_to_close - !last_ckpt_window >= every ->
              take_checkpoint ~watermark:value
          | Some _ | None -> ()))
    frames;
  (* Session close scheduling: drain everything so the windowing tasks
     have populated the session table, then close each discovered
     session behind one synthetic final watermark that clears every
     session's last event time plus the gap (the in-TEE egress check
     refuses anything earlier). *)
  (match Pipeline.session_gap pipe with
  | None -> ()
  | Some gap ->
      quiesce ();
      let final_wm = !max_wm_seen + gap + 1 in
      let wm =
        add_task ~arrival:c.cum_events ~label:"wm:session-final" (fun () ->
            c.wm_audit_ref <- D.call dp (D.R_ingest_watermark { value = final_wm });
            0.0)
      in
      List.iter
        (fun (w, ws) -> schedule_close ~wm ~label:(Printf.sprintf "close:s%d" w) w ws)
        (sorted_bindings c.windows));
  drain_segment ();
  (* Retract-and-reemit kept every window's segments alive for possible
     corrections; reclaim them now that no more can arrive (R_retire is
     audit-silent, so the sweep leaves no trace in the signed log). *)
  if protect then
    List.iter
      (fun (_, ws) ->
        List.iter (fun (_, r) -> D.call dp (D.R_retire { input = r })) (List.rev ws.ready);
        ws.ready <- [])
      (sorted_bindings c.windows);
  D.finalize dp;
  (* Assemble the trace: node order is schedule order (reverse of the
     accumulation list). *)
  let nodes_in_order = List.rev !pending_nodes in
  let trace_nodes =
    Array.of_list
      (List.map
         (fun (label, task, dep_idxs, arrival, role) ->
           {
             Trace.label;
             cost_ns = Des.cost_ns_of task;
             deps = dep_idxs;
             arrival_events = arrival;
             role;
           })
         nodes_in_order)
  in
  let trace = Trace.of_nodes trace_nodes in
  let dp_stats = D.stats dp in
  (* PR 7 observability: world-switch pairs the run cost, and the audit
     volume it shipped (compressed, authenticated batch payloads).  Both
     are what operator fusion is meant to shrink, so they get first-class
     counters (added to, not reset, so a shared fleet registry
     accumulates across nodes). *)
  Sbt_obs.Metrics.add
    (Sbt_obs.Metrics.counter reg "smc.switches")
    dp_stats.D.switch_pairs;
  Sbt_obs.Metrics.add
    (Sbt_obs.Metrics.counter reg "audit.bytes")
    (List.fold_left
       (fun acc (b : Sbt_attest.Log.batch) -> acc + Bytes.length b.payload)
       0 (D.uploaded_batches dp));
  let tee_metrics, tee_quote = D.metrics_quote dp ~nonce:(Bytes.of_string "sbt-run-final") in
  {
    results = List.rev !results;
    corrections = List.rev !corrections;
    trace;
    dp_stats;
    pool_high_water_bytes = D.pool_high_water_bytes dp;
    mem_samples_bytes = List.rev !mem_samples;
    audit = D.uploaded_batches dp;
    verifier_spec =
      Pipeline.verifier_spec
        ~late_policy:(D.late_policy_code cfg.dp_config.D.late_policy)
        pipe;
    makespan_ns = c.base_ns;
    total_events = c.total_events;
    tasks_executed = !tasks_total;
    live_refs_after = D.live_refs dp;
    loss =
      Loss.v ~gaps_declared:c.gaps_declared ~batches_dropped:c.batches_dropped
        ~events_dropped:c.events_dropped;
    registry = reg;
    tee_metrics;
    tee_quote;
  }

let run ?registry cfg pipe frames = record ?registry cfg pipe frames

(* --- resumable partition node ----------------------------------------------

   One [Node.t] per key partition owns the partition's durable
   normal-world state (sealed checkpoint store, source replay buffer,
   uploaded audit batches, sealed results) and runs it one boot epoch at
   a time.  A boot completes the stream, halts at a scheduled checkpoint
   boundary (the fleet's kill/fence point), or dies of an injected crash.
   The next [boot] — on the same edge after a crash, or on whichever edge
   owns the partition after a handoff — derives the newest attested
   checkpoint sequence from the signed audit stream (so a rolled-back
   blob cannot pose as the latest), unseals it into a fresh data plane,
   trims durable state back to the checkpoint's cut and re-ingests the
   replay suffix, so the stitched output is byte-identical to an
   uninterrupted run with the same [ckpt_every].  Each boot is stamped
   with an epoch manifest for the multi-epoch verifier. *)

module Node = struct
  type outcome = Completed | Halted of { at_window : int }

  type t = {
    mutable n_cfg : config;
    n_pipe : Pipeline.t;
    n_ckpt_every : int;
    n_store : Sbt_recovery.Store.t;
    n_replay : Sbt_net.Replay.t;
    mutable n_epochs : (Sbt_attest.Epoch.manifest * Sbt_attest.Log.batch list) list;
        (* newest first *)
    mutable n_uploads : Sbt_attest.Log.batch list; (* stitched, oldest first *)
    mutable n_results : (int * D.sealed_result) list; (* stitched, ascending *)
    mutable n_last_run : run_result option; (* the completing boot's full result *)
    mutable n_vt_ns : float;
    mutable n_total_events : int;
    mutable n_replayed : int;
    mutable n_ckpts : int;
    mutable n_ckpt_bytes : int;
  }

  let create ?(ckpt_every = 1) cfg pipe frames =
    {
      n_cfg = cfg;
      n_pipe = pipe;
      n_ckpt_every = ckpt_every;
      n_store = Sbt_recovery.Store.create ();
      n_replay = Sbt_net.Replay.create frames;
      n_epochs = [];
      n_uploads = [];
      n_results = [];
      n_last_run = None;
      n_vt_ns = 0.0;
      n_total_events = 0;
      n_replayed = 0;
      n_ckpts = 0;
      n_ckpt_bytes = 0;
    }

  let key t = t.n_cfg.dp_config.D.egress_key
  let finished t = Option.is_some t.n_last_run

  (* Where a boot after the first starts: (resume, frame offset,
     resumed-from checkpoint, resume batch seq). *)
  let resume_point t =
    match Sbt_recovery.Store.latest t.n_store with
    | None ->
        (* Died before any checkpoint: nothing acked, restart from
           scratch; the fresh boot regenerates all durable state. *)
        t.n_uploads <- [];
        t.n_results <- [];
        (None, 0, -1, 0)
    | Some (_, blob) ->
        (* Rollback floor: the newest checkpoint the signed audit stream
           attests. *)
        let attested_ckpt =
          List.fold_left
            (fun acc b ->
              List.fold_left
                (fun acc r ->
                  match r with Sbt_attest.Record.Checkpoint { seq; _ } -> max acc seq | _ -> acc)
                acc
                (Sbt_attest.Log.open_batch ~key:(key t) b))
            (-1) t.n_uploads
        in
        let restored = D.restore t.n_cfg.dp_config ~expect_seq:(max attested_ckpt 0) blob in
        let ctl = decode_control restored.D.control in
        (* Trim durable state back to the checkpoint's cut: batches and
           windows past it are regenerated by the resumed boot, byte for
           byte. *)
        t.n_uploads <- List.filter (fun b -> b.Sbt_attest.Log.seq < restored.D.log_seq) t.n_uploads;
        t.n_results <- List.filter (fun (w, _) -> w < ctl.next_window_to_close) t.n_results;
        (Some (restored.D.rt, ctl), ctl.frame_idx, restored.D.ckpt_seq, restored.D.log_seq)

  let boot ?registry ?halt_after_window t =
    if finished t then Completed
    else begin
      let epoch = List.length t.n_epochs in
      let resume, frame_offset, resumed_from, resume_batch_seq =
        if epoch = 0 then (None, 0, -1, 0) else resume_point t
      in
      let suffix = Sbt_net.Replay.suffix t.n_replay ~from:frame_offset in
      if epoch > 0 then t.n_replayed <- t.n_replayed + List.length suffix;
      let manifest = { Sbt_attest.Epoch.epoch; resumed_from; resume_batch_seq } in
      let on_checkpoint ~blob ~seq ~frame_idx =
        Sbt_recovery.Store.put t.n_store ~seq blob;
        t.n_ckpts <- t.n_ckpts + 1;
        t.n_ckpt_bytes <- t.n_ckpt_bytes + Bytes.length blob;
        Sbt_net.Replay.ack t.n_replay ~upto:frame_idx
      in
      let keep uploads results =
        t.n_epochs <- (manifest, uploads) :: t.n_epochs;
        t.n_uploads <- t.n_uploads @ uploads;
        t.n_results <- t.n_results @ results
      in
      match
        record ~ckpt_every:t.n_ckpt_every ~on_checkpoint ?resume ?registry
          ?halt_after_window t.n_cfg t.n_pipe suffix
      with
      | r ->
          keep r.audit r.results;
          t.n_last_run <- Some r;
          t.n_vt_ns <- Float.max t.n_vt_ns r.makespan_ns;
          t.n_total_events <- r.total_events;
          Completed
      | exception Halted_at { uploads; results; vt_ns } ->
          keep uploads results;
          t.n_vt_ns <- Float.max t.n_vt_ns vt_ns;
          Halted { at_window = Option.value ~default:0 halt_after_window }
      | exception Crashed { site; uploads; results } ->
          keep uploads results;
          (* Later boots run without the injected crash. *)
          let dp = t.n_cfg.dp_config in
          let fault_plan = Sbt_fault.Fault.without_crash dp.D.fault_plan in
          t.n_cfg <- { t.n_cfg with dp_config = { dp with D.fault_plan } };
          raise (Crashed { site; uploads = t.n_uploads; results = t.n_results })
    end

  let epoch_count t = List.length t.n_epochs
  let results t = List.sort (fun (a, _) (b, _) -> compare a b) t.n_results
  let audit t = t.n_uploads

  let epochs t =
    List.rev_map
      (fun (m, batches) -> (Sbt_attest.Epoch.seal ~key:(key t) m, batches))
      t.n_epochs

  let manifests t = List.rev_map fst t.n_epochs
  let acked_frames t = Sbt_net.Replay.acked t.n_replay

  let vt_ns t = t.n_vt_ns
  let total_events t = t.n_total_events
  let replayed_frames t = t.n_replayed
  let checkpoints t = t.n_ckpts
  let checkpoint_bytes t = t.n_ckpt_bytes
end

(* --- supervised restart ----------------------------------------------------

   The normal-world supervisor around a checkpointed run: one [Node]
   owns the durable stores and the supervisor owns the restart policy,
   booting again after each injected crash up to [max_restarts] times. *)

type supervised = {
  sv_results : (int * D.sealed_result) list;  (* stitched, ascending window *)
  sv_audit : Sbt_attest.Log.batch list;  (* stitched, oldest first *)
  sv_epochs : (Sbt_attest.Epoch.sealed * Sbt_attest.Log.batch list) list;
  sv_report : Sbt_attest.Verifier.report;
  sv_crash_sites : Sbt_fault.Fault.site list;
  sv_epoch_count : int;
  sv_replayed_frames : int;
  sv_checkpoints : int;
  sv_checkpoint_bytes : int;
  sv_last_run : run_result option;  (* the completing boot's full result *)
}

let run_supervised ?(max_restarts = 3) ?(ckpt_every = 1) cfg pipe frames =
  let node = Node.create ~ckpt_every cfg pipe frames in
  let rec boot crash_sites =
    match Node.boot node with
    | (_ : Node.outcome) -> List.rev crash_sites
    | exception (Crashed { site; _ } as crash) ->
        if Node.epoch_count node > max_restarts then raise crash else boot (site :: crash_sites)
  in
  let crash_sites = boot [] in
  let epochs = Node.epochs node in
  {
    sv_results = Node.results node;
    sv_audit = Node.audit node;
    sv_epochs = epochs;
    sv_report =
      Sbt_attest.Verifier.verify_epochs ~key:(Node.key node) (Pipeline.verifier_spec pipe) epochs;
    sv_crash_sites = crash_sites;
    sv_epoch_count = Node.epoch_count node;
    sv_replayed_frames = Node.replayed_frames node;
    sv_checkpoints = Node.checkpoints node;
    sv_checkpoint_bytes = Node.checkpoint_bytes node;
    sv_last_run = node.Node.n_last_run;
  }
