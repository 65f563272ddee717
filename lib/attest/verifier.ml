type spec = {
  batch_ops : int list;
  window_ops : int list;
  window_size : int;
  window_slide : int;
  freshness_bound : int option;
  late_policy : int;
  session_gap : int option;
}

type violation =
  | Unknown_uarray of { record_index : int; id : int }
  | Unexpected_batch_op of { id : int; expected : int; got : int }
  | Window_ops_mismatch of { window : int; expected : int list; got : int list }
  | Unprocessed_batch of { id : int }
  | Unprocessed_window_data of { window : int; ids : int list }
  | Double_consumption of { record_index : int; id : int }
  | Missing_egress of { window : int }
  | Duplicate_egress of { window : int }
  | Stale_result of { window : int; delay : int; bound : int }
  | Mixed_window_inputs of { record_index : int }
  | Watermark_regression of { id : int; value : int; prev : int }
  | Egress_of_non_result of { record_index : int; id : int }
  | Undeclared_loss of { stream : int; seq : int }
  | Missing_epoch of { expected : int; got : int }
  | Checkpoint_rollback of { epoch : int; resumed_from : int; latest : int }
  | Duplicate_window_across_epochs of { window : int; first_epoch : int; second_epoch : int }
  | Fleet_partition_loss of { partition : int; missing_windows : int; total_windows : int }
  | Cross_edge_duplicate of { partition : int; window : int; first_edge : int; second_edge : int }
  | Handoff_unattested of { partition : int; donor : int; recipient : int }
  | Handoff_mismatch of { partition : int; donor : int; recipient : int; reason : string }
  | Fused_chain_mismatch of { record_index : int }
  | Fused_non_fusable of { record_index : int; op : int }
  | Tenant_log_unverifiable of { tenant : int; reason : string }
  | Undeclared_late_handling of { record_index : int; window : int }
  | Correction_mismatch of { window : int; expected_gen : int; got_gen : int }
  | Retraction_without_reemit of { window : int; declared : int; replayed : int }

let pp_violation fmt = function
  | Unknown_uarray { record_index; id } ->
      Format.fprintf fmt "record %d references unknown uArray %d" record_index id
  | Unexpected_batch_op { id; expected; got } ->
      Format.fprintf fmt "uArray %d: expected batch op %d, got %d" id expected got
  | Window_ops_mismatch { window; expected; got } ->
      let l ids = String.concat "," (List.map string_of_int ids) in
      Format.fprintf fmt "window %d: expected ops {%s}, got {%s}" window (l expected) (l got)
  | Unprocessed_batch { id } -> Format.fprintf fmt "ingested batch %d never windowed" id
  | Unprocessed_window_data { window; ids } ->
      Format.fprintf fmt "window %d: uArrays %s never processed" window
        (String.concat "," (List.map string_of_int ids))
  | Double_consumption { record_index; id } ->
      Format.fprintf fmt "record %d consumes already-consumed uArray %d" record_index id
  | Missing_egress { window } -> Format.fprintf fmt "window %d closed but produced no result" window
  | Duplicate_egress { window } -> Format.fprintf fmt "window %d externalized more than once" window
  | Stale_result { window; delay; bound } ->
      Format.fprintf fmt "window %d result delayed %d > bound %d" window delay bound
  | Mixed_window_inputs { record_index } ->
      Format.fprintf fmt "record %d mixes inputs across windows/stages" record_index
  | Watermark_regression { id; value; prev } ->
      Format.fprintf fmt "watermark %d regresses (%d after %d)" id value prev
  | Egress_of_non_result { record_index; id } ->
      Format.fprintf fmt "record %d externalizes non-result uArray %d" record_index id
  | Undeclared_loss { stream; seq } ->
      Format.fprintf fmt "stream %d frame %d missing with no declared gap" stream seq
  | Missing_epoch { expected; got } ->
      Format.fprintf fmt "epoch chain broken: expected epoch %d, got %d" expected got
  | Checkpoint_rollback { epoch; resumed_from; latest } ->
      Format.fprintf fmt "epoch %d resumed from checkpoint %d but the log attests checkpoint %d"
        epoch resumed_from latest
  | Duplicate_window_across_epochs { window; first_epoch; second_epoch } ->
      Format.fprintf fmt "window %d emitted in both epoch %d and epoch %d" window first_epoch
        second_epoch
  | Fleet_partition_loss { partition; missing_windows; total_windows } ->
      Format.fprintf fmt "partition %d: %d of %d window(s) egressed nowhere with no declared gap"
        partition missing_windows total_windows
  | Cross_edge_duplicate { partition; window; first_edge; second_edge } ->
      Format.fprintf fmt "partition %d window %d egressed by both edge %d and edge %d" partition
        window first_edge second_edge
  | Handoff_unattested { partition; donor; recipient } ->
      Format.fprintf fmt
        "partition %d executed on edge %d then edge %d with no handoff manifest linking them"
        partition donor recipient
  | Handoff_mismatch { partition; donor; recipient; reason } ->
      Format.fprintf fmt "partition %d handoff edge %d -> edge %d invalid: %s" partition donor
        recipient reason
  | Fused_chain_mismatch { record_index } ->
      Format.fprintf fmt "record %d: fused chain hash does not match its ops/params" record_index
  | Fused_non_fusable { record_index; op } ->
      Format.fprintf fmt "record %d: fused chain contains non-fusable op %d" record_index op
  | Tenant_log_unverifiable { tenant; reason } ->
      Format.fprintf fmt "tenant %d: audit stream fails authentication (%s)" tenant reason
  | Undeclared_late_handling { record_index; window } ->
      Format.fprintf fmt
        "record %d: late data of window %d handled under a policy the quote never declared"
        record_index window
  | Correction_mismatch { window; expected_gen; got_gen } ->
      Format.fprintf fmt "window %d: correction generation %d where %d was expected" window got_gen
        expected_gen
  | Retraction_without_reemit { window; declared; replayed } ->
      Format.fprintf fmt
        "window %d: replayed %d evaluation(s) but only %d emission(s) were declared" window
        replayed declared

type report = {
  violations : violation list;
  misleading_hints : int;
  windows_verified : int;
  records_replayed : int;
  max_delay : int;
  delays : (int * int) list;
  declared_gaps : int;
  gap_events : int;
  lost_batches : int;
  loss_fraction : float;
  degraded_windows : int list;
  late_drops : int;
  late_events : int;
  corrections : int;
  corrected_windows : int list;
}

let ok r = r.violations = []

(* Provenance of every identifier the data plane has mentioned. *)
type batch_info = { mutable windowed : bool }
type seg_info = { seg_window : int; mutable stage : int; mutable consumed : bool }
type ready_info = { ready_window : int; mutable read : bool }
type mid_info = { mid_window : int; mutable mid_read : bool; mutable egressed : bool }

type prov =
  | Batch of batch_info
  | Watermark of { value : int; ts : int }
  | Segment of seg_info
  | Ready of ready_info
  | Group_mid of mid_info

type win_state = {
  mutable ready_ids : int list;
  mutable group_ops : int list;
  mutable egress_count : int;
  mutable egress_ts : int option;
}

let verify spec records =
  let table : (int, prov) Hashtbl.t = Hashtbl.create 256 in
  let windows : (int, win_state) Hashtbl.t = Hashtbl.create 64 in
  let violations = ref [] in
  let violate v = violations := v :: !violations in
  (* Consumption order is the index of the record that first consumed an
     id; all inputs of one execution tie, so a hint between them is not
     misleading. *)
  let consumption_seq : (int, int) Hashtbl.t = Hashtbl.create 256 in
  let note_consumed ~idx id =
    if not (Hashtbl.mem consumption_seq id) then Hashtbl.replace consumption_seq id idx
  in
  (* hints recorded as (predecessor id, output id) pairs *)
  let hints_seen = ref [] in
  let watermarks = ref [] (* (value, ts), record order *) in
  let prev_wm = ref min_int in
  let win_state w =
    match Hashtbl.find_opt windows w with
    | Some s -> s
    | None ->
        let s = { ready_ids = []; group_ops = []; egress_count = 0; egress_ts = None } in
        Hashtbl.replace windows w s;
        s
  in
  let batch_op_count = List.length spec.batch_ops in
  (* A Fused record's claim depends only on its (ops, params): the chain
     hash they commit to, and whether the params decode to those ops.  A
     stream repeats a few chains, so each is derived once. *)
  let fused_claims : (int list * bytes, bytes * bool) Hashtbl.t = Hashtbl.create 8 in
  let fused_claim ops params =
    match Hashtbl.find_opt fused_claims (ops, params) with
    | Some c -> c
    | None ->
        let decodes =
          match Sbt_prim.Fused.decode_steps params with
          | Some steps ->
              List.map (fun s -> Sbt_prim.Primitive.to_id (Sbt_prim.Fused.step_op s)) steps = ops
          | None -> false
        in
        let c = (Record.chain_hash ~ops ~params, decodes) in
        Hashtbl.add fused_claims (ops, params) c;
        c
  in
  (* Loss accounting: ingress and declared-gap frame identities, per
     stream.  Holes inside a stream's observed sequence range that no Gap
     record covers are undeclared loss — the tamper-evidence property the
     fault model must preserve. *)
  let ingress_seqs : (int, (int, unit) Hashtbl.t) Hashtbl.t = Hashtbl.create 8 in
  let gap_seqs : (int, (int, unit) Hashtbl.t) Hashtbl.t = Hashtbl.create 8 in
  let seq_set tbl stream =
    match Hashtbl.find_opt tbl stream with
    | Some s -> s
    | None ->
        let s = Hashtbl.create 64 in
        Hashtbl.replace tbl stream s;
        s
  in
  let declared_gaps = ref 0 and gap_events = ref 0 in
  let gap_windows : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  (* Late-data accounting.  [corr_gens] keeps correction generations per
     window in record order; [late_drop_windows] suppresses
     [Missing_egress] the same way declared gaps do — a window whose
     entire content arrived late and was (declaredly) dropped never
     egresses, and that is degradation, not tampering. *)
  let late_drops = ref 0 and late_events = ref 0 in
  let late_drop_windows : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  let corr_gens : (int, int list) Hashtbl.t = Hashtbl.create 8 in
  let corrections_of w = match Hashtbl.find_opt corr_gens w with None -> [] | Some l -> List.rev l in
  let register_output window stage_done id =
    if Hashtbl.mem table id then violate (Double_consumption { record_index = -1; id })
    else if stage_done then begin
      Hashtbl.replace table id (Ready { ready_window = window; read = false });
      let s = win_state window in
      s.ready_ids <- id :: s.ready_ids
    end
    else Hashtbl.replace table id (Segment { seg_window = window; stage = 0; consumed = false })
  in
  List.iteri
    (fun idx r ->
      match r with
      | Record.Ingress { ts = _; uarray; stream; seq } ->
          Hashtbl.replace (seq_set ingress_seqs stream) seq ();
          if Hashtbl.mem table uarray then
            violate (Double_consumption { record_index = idx; id = uarray })
          else Hashtbl.replace table uarray (Batch { windowed = false })
      | Record.Ingress_watermark { ts; id; value } ->
          if value < !prev_wm then violate (Watermark_regression { id; value; prev = !prev_wm });
          prev_wm := max !prev_wm value;
          Hashtbl.replace table id (Watermark { value; ts });
          watermarks := (value, ts) :: !watermarks
      | Record.Windowing { ts = _; data_in; win_no; data_out } -> (
          match Hashtbl.find_opt table data_in with
          | Some (Batch b) ->
              b.windowed <- true;
              note_consumed ~idx data_in;
              (* Segments with no batch stages are immediately window-ready. *)
              register_output win_no (batch_op_count = 0) data_out
          | Some (Watermark _ | Segment _ | Ready _ | Group_mid _) ->
              violate (Mixed_window_inputs { record_index = idx })
          | None -> violate (Unknown_uarray { record_index = idx; id = data_in }))
      | Record.Execution { ts = _; op; inputs; outputs; hints } -> (
          (* Classify the inputs. *)
          let wm = ref None and segs = ref [] and window_inputs = ref [] in
          let bad = ref false in
          List.iter
            (fun id ->
              match Hashtbl.find_opt table id with
              | None ->
                  violate (Unknown_uarray { record_index = idx; id });
                  bad := true
              | Some (Watermark _) -> wm := Some id
              | Some (Segment s) -> segs := (id, s) :: !segs
              | Some (Ready r) -> window_inputs := (id, `Ready r) :: !window_inputs
              | Some (Group_mid g) -> window_inputs := (id, `Mid g) :: !window_inputs
              | Some (Batch _) ->
                  violate (Mixed_window_inputs { record_index = idx });
                  bad := true)
            inputs;
          (if not !bad then
            match (!segs, !window_inputs, !wm) with
            | [ (id, s) ], [], None ->
                (* Batch-stage execution. *)
                if s.consumed then violate (Double_consumption { record_index = idx; id })
                else begin
                  s.consumed <- true;
                  note_consumed ~idx id;
                  let expected = List.nth spec.batch_ops s.stage in
                  if op <> expected then violate (Unexpected_batch_op { id; expected; got = op });
                  let done_after = s.stage + 1 >= batch_op_count in
                  List.iter
                    (fun out ->
                      if done_after then register_output s.seg_window true out
                      else begin
                        Hashtbl.replace table out
                          (Segment { seg_window = s.seg_window; stage = s.stage + 1; consumed = false });
                        ignore (win_state s.seg_window)
                      end)
                    outputs
                end
            | [], ((_ :: _) as wins), _ ->
                (* Window-group execution.  The group belongs to the newest
                   window among its inputs; Ready (segment) inputs must all
                   belong to that window, while Group_mid inputs from
                   earlier windows are legal - that is operator state
                   flowing forward (paper 7: stateful operators). *)
                let window_of (_, i) = match i with `Ready r -> r.ready_window | `Mid g -> g.mid_window in
                let w0 = List.fold_left (fun acc x -> max acc (window_of x)) min_int wins in
                let ok =
                  List.for_all
                    (fun (_, i) ->
                      match i with
                      | `Ready r -> r.ready_window = w0
                      | `Mid g -> g.mid_window <= w0)
                    wins
                in
                if ok then begin
                  List.iter
                    (fun (id, i) ->
                      note_consumed ~idx id;
                      match i with `Ready r -> r.read <- true | `Mid g -> g.mid_read <- true)
                    wins;
                  let s = win_state w0 in
                  s.group_ops <- op :: s.group_ops;
                  List.iter
                    (fun out ->
                      Hashtbl.replace table out
                        (Group_mid { mid_window = w0; mid_read = false; egressed = false }))
                    outputs
                end
                else violate (Mixed_window_inputs { record_index = idx })
            | _, _, _ -> violate (Mixed_window_inputs { record_index = idx }));
          (* Hints pair the first output with a predecessor uArray. *)
          List.iter
            (fun h ->
              let pred = Int64.to_int (Int64.shift_right_logical h 32) in
              let succ = Int64.to_int (Int64.logand h 0xFFFFFFFFL) in
              hints_seen := (pred, succ) :: !hints_seen)
            hints)
      | Record.Fused { ts = _; ops; params; chain; inputs; outputs; hints } -> (
          (* One composite record claims a whole chain of per-record
             primitives ran as a single trusted entry.  Judge the claim
             itself first — the chain hash must commit to exactly these
             ops and params, the params blob must decode to the same op
             sequence, and every op must be one the type system allows to
             fuse — then replay it as the equivalent unfused sequence of
             batch stages. *)
          let expected_chain, decodes = fused_claim ops params in
          if not (Bytes.equal chain expected_chain) then
            violate (Fused_chain_mismatch { record_index = idx });
          if not decodes then violate (Fused_chain_mismatch { record_index = idx });
          List.iter
            (fun op ->
              match Sbt_prim.Primitive.of_id op with
              | Some p when Sbt_prim.Primitive.fusable p -> ()
              | Some _ | None -> violate (Fused_non_fusable { record_index = idx; op }))
            ops;
          let n_ops = List.length ops in
          let wm = ref None and segs = ref [] and window_inputs = ref [] in
          let bad = ref false in
          List.iter
            (fun id ->
              match Hashtbl.find_opt table id with
              | None ->
                  violate (Unknown_uarray { record_index = idx; id });
                  bad := true
              | Some (Watermark _) -> wm := Some id
              | Some (Segment s) -> segs := (id, s) :: !segs
              | Some (Ready r) -> window_inputs := (id, `Ready r) :: !window_inputs
              | Some (Group_mid g) -> window_inputs := (id, `Mid g) :: !window_inputs
              | Some (Batch _) ->
                  violate (Mixed_window_inputs { record_index = idx });
                  bad := true)
            inputs;
          (if not !bad then
            match (!segs, !window_inputs, !wm) with
            | [ (id, s) ], [], None ->
                (* Fused batch-stage execution: the chain must line up
                   with the declared batch ops starting at the segment's
                   current stage, and advances the stage by the whole
                   chain length at once. *)
                if s.consumed then violate (Double_consumption { record_index = idx; id })
                else begin
                  s.consumed <- true;
                  note_consumed ~idx id;
                  List.iteri
                    (fun k op ->
                      if s.stage + k >= batch_op_count then
                        violate (Unexpected_batch_op { id; expected = -1; got = op })
                      else
                        let expected = List.nth spec.batch_ops (s.stage + k) in
                        if op <> expected then
                          violate (Unexpected_batch_op { id; expected; got = op }))
                    ops;
                  let done_after = s.stage + n_ops >= batch_op_count in
                  List.iter
                    (fun out ->
                      if done_after then register_output s.seg_window true out
                      else begin
                        Hashtbl.replace table out
                          (Segment
                             { seg_window = s.seg_window; stage = s.stage + n_ops; consumed = false });
                        ignore (win_state s.seg_window)
                      end)
                    outputs
                end
            | [], ((_ :: _) as wins), _ ->
                (* Fused window-group execution: all chain ops count
                   toward the window's op multiset. *)
                let window_of (_, i) = match i with `Ready r -> r.ready_window | `Mid g -> g.mid_window in
                let w0 = List.fold_left (fun acc x -> max acc (window_of x)) min_int wins in
                let ok =
                  List.for_all
                    (fun (_, i) ->
                      match i with
                      | `Ready r -> r.ready_window = w0
                      | `Mid g -> g.mid_window <= w0)
                    wins
                in
                if ok then begin
                  List.iter
                    (fun (id, i) ->
                      note_consumed ~idx id;
                      match i with `Ready r -> r.read <- true | `Mid g -> g.mid_read <- true)
                    wins;
                  let s = win_state w0 in
                  List.iter (fun op -> s.group_ops <- op :: s.group_ops) ops;
                  List.iter
                    (fun out ->
                      Hashtbl.replace table out
                        (Group_mid { mid_window = w0; mid_read = false; egressed = false }))
                    outputs
                end
                else violate (Mixed_window_inputs { record_index = idx })
            | _, _, _ -> violate (Mixed_window_inputs { record_index = idx }));
          List.iter
            (fun h ->
              let pred = Int64.to_int (Int64.shift_right_logical h 32) in
              let succ = Int64.to_int (Int64.logand h 0xFFFFFFFFL) in
              hints_seen := (pred, succ) :: !hints_seen)
            hints)
      | Record.Egress { ts; uarray; win_no } -> (
          match Hashtbl.find_opt table uarray with
          | Some (Group_mid g) when g.mid_window = win_no && not g.egressed ->
              g.egressed <- true;
              note_consumed ~idx uarray;
              let s = win_state win_no in
              s.egress_count <- s.egress_count + 1;
              if s.egress_count > 1 then violate (Duplicate_egress { window = win_no });
              if s.egress_ts = None then s.egress_ts <- Some ts
          | Some (Ready r) when r.ready_window = win_no && spec.window_ops = [] ->
              r.read <- true;
              note_consumed ~idx uarray;
              let s = win_state win_no in
              s.egress_count <- s.egress_count + 1;
              if s.egress_count > 1 then violate (Duplicate_egress { window = win_no });
              if s.egress_ts = None then s.egress_ts <- Some ts
          | Some (Batch _ | Watermark _ | Segment _ | Ready _ | Group_mid _) ->
              violate (Egress_of_non_result { record_index = idx; id = uarray })
          | None -> violate (Unknown_uarray { record_index = idx; id = uarray }))
      | Record.Gap { ts = _; stream; seq; events; windows = ws; reason = _ } ->
          Hashtbl.replace (seq_set gap_seqs stream) seq ();
          incr declared_gaps;
          gap_events := !gap_events + events;
          List.iter (fun w -> Hashtbl.replace gap_windows w ()) ws
      | Record.Checkpoint _ ->
          (* State sealing has no dataflow of its own; its sequence
             numbers matter to [verify_epochs], not to single-log replay. *)
          ()
      | Record.Late_drop { ts = _; uarray; win_no; events } -> (
          (* Declared late shedding is only a declaration when the quote
             committed to drop+declare; under any other attested policy
             the record is itself the deviation. *)
          if spec.late_policy <> 1 then
            violate (Undeclared_late_handling { record_index = idx; window = win_no });
          incr late_drops;
          late_events := !late_events + events;
          Hashtbl.replace late_drop_windows win_no ();
          match Hashtbl.find_opt table uarray with
          | Some (Ready r) when r.ready_window = win_no ->
              r.read <- true;
              note_consumed ~idx uarray
          | Some (Batch _ | Watermark _ | Segment _ | Ready _ | Group_mid _) ->
              violate (Mixed_window_inputs { record_index = idx })
          | None -> violate (Unknown_uarray { record_index = idx; id = uarray }))
      | Record.Correction { ts = _; uarray; win_no; gen } -> (
          if spec.late_policy <> 2 then
            violate (Undeclared_late_handling { record_index = idx; window = win_no });
          Hashtbl.replace corr_gens win_no
            (gen :: (match Hashtbl.find_opt corr_gens win_no with None -> [] | Some l -> l));
          (* A correction externalizes a window result exactly like an
             egress, but supersedes rather than duplicates the original:
             it neither bumps the egress count nor touches the delay
             accounting (freshness is judged on first emission). *)
          match Hashtbl.find_opt table uarray with
          | Some (Group_mid g) when g.mid_window = win_no && not g.egressed ->
              g.egressed <- true;
              note_consumed ~idx uarray
          | Some (Ready r) when r.ready_window = win_no && spec.window_ops = [] ->
              r.read <- true;
              note_consumed ~idx uarray
          | Some (Batch _ | Watermark _ | Segment _ | Ready _ | Group_mid _) ->
              violate (Egress_of_non_result { record_index = idx; id = uarray })
          | None -> violate (Unknown_uarray { record_index = idx; id = uarray })))
    records;
  (* Correction generations must be contiguous from 1 in emission order:
     a skipped, repeated, or reordered generation means the cloud-side
     merge would apply a different history than the TEE emitted. *)
  Hashtbl.iter
    (fun w gens ->
      List.iteri
        (fun i g ->
          if g <> i + 1 then
            violate (Correction_mismatch { window = w; expected_gen = i + 1; got_gen = g }))
        (List.rev gens))
    corr_gens;
  (* Final sweep. *)
  Hashtbl.iter
    (fun id prov ->
      match prov with
      | Batch b -> if not b.windowed then violate (Unprocessed_batch { id })
      | Watermark _ | Segment _ | Ready _ | Group_mid _ -> ())
    table;
  let windows_verified = ref 0 in
  let delays = ref [] and max_delay = ref 0 in
  (* Closing watermark of a window: the first (in record order) whose value
     covers the window end.  Records may interleave watermarks ahead of a
     window's stage records under parallel execution, so closing is decided
     here, not while scanning. *)
  let wms_in_order = List.rev !watermarks in
  let closing_wm_ts w =
    let win_end = (w * spec.window_slide) + spec.window_size in
    List.find_map (fun (value, ts) -> if value >= win_end then Some ts else None) wms_in_order
  in
  let session_mode = spec.session_gap <> None in
  Hashtbl.iter
    (fun w s ->
      let n_corr = List.length (corrections_of w) in
      (* Session windows close by inactivity gap, not by a spec-derivable
         watermark boundary, so the sweep judges exactly the sessions the
         log emitted (completeness across sessions has no static window
         grid to check against).  [Some None] = "closed, but no watermark
         timestamp to measure delay from". *)
      let closing =
        if session_mode then if s.egress_count > 0 || n_corr > 0 then Some None else None
        else Option.map Option.some (closing_wm_ts w)
      in
      match closing with
      | None -> () (* window still open at end of log: nothing to assert yet *)
      | Some wm_ts ->
          incr windows_verified;
          if s.egress_count = 0 && n_corr = 0 then begin
            (* A window named by a declared gap (or one whose whole
               content was declaredly dropped as late) may legitimately
               have shed all its remaining work: degradation, not
               violation. *)
            if not (Hashtbl.mem gap_windows w || Hashtbl.mem late_drop_windows w) then
              violate (Missing_egress { window = w })
          end
          else begin
            (* Every emission — the original egress and each correction —
               replays the whole window chain, so the op multiset scales
               with the emission count.  More replays than emissions is
               the retract-without-reemit signature: a window was
               reopened and re-evaluated, but the superseding result
               never left the TEE. *)
            let runs = n_corr + (if s.egress_count > 0 then 1 else 0) in
            let n_copies k = List.concat (List.init k (fun _ -> spec.window_ops)) in
            let expected = List.sort compare (n_copies runs) in
            let got = List.sort compare s.group_ops in
            if expected <> got then begin
              let wlen = List.length spec.window_ops in
              let glen = List.length got in
              if
                wlen > 0
                && glen mod wlen = 0
                && glen / wlen > runs
                && List.sort compare (n_copies (glen / wlen)) = got
              then
                violate
                  (Retraction_without_reemit { window = w; declared = runs; replayed = glen / wlen })
              else violate (Window_ops_mismatch { window = w; expected; got })
            end;
            let unread =
              List.filter
                (fun id ->
                  match Hashtbl.find_opt table id with
                  | Some (Ready r) -> not r.read
                  | Some (Batch _ | Watermark _ | Segment _ | Group_mid _) | None -> false)
                s.ready_ids
            in
            if unread <> [] then violate (Unprocessed_window_data { window = w; ids = unread });
            match (s.egress_ts, wm_ts) with
            | Some ets, Some wm_ts ->
                let d = ets - wm_ts in
                delays := (w, d) :: !delays;
                if d > !max_delay then max_delay := d;
                (match spec.freshness_bound with
                | Some bound when d > bound -> violate (Stale_result { window = w; delay = d; bound })
                | Some _ | None -> ())
            | _, _ -> ()
          end)
    windows;
  (* Misleading hints: successor consumed before its predecessor. *)
  let misleading =
    List.fold_left
      (fun acc (pred, succ) ->
        match (Hashtbl.find_opt consumption_seq pred, Hashtbl.find_opt consumption_seq succ) with
        | Some p, Some s when s < p -> acc + 1
        | _, _ -> acc)
      0 !hints_seen
  in
  (* Sequence-continuity sweep: every hole in a stream's covered range
     [min, max] must be explained by an ingress record or a declared gap.
     Loss before the first or after the last observed frame of a stream is
     invisible here (nothing anchors the range); DESIGN.md documents the
     limitation. *)
  let streams_seen : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  Hashtbl.iter (fun s _ -> Hashtbl.replace streams_seen s ()) ingress_seqs;
  Hashtbl.iter (fun s _ -> Hashtbl.replace streams_seen s ()) gap_seqs;
  let lost_batches = ref 0 and expected_batches = ref 0 in
  let stream_ids = Hashtbl.fold (fun s () acc -> s :: acc) streams_seen [] in
  List.iter
    (fun stream ->
      let ing = seq_set ingress_seqs stream and gap = seq_set gap_seqs stream in
      let bounds tbl acc =
        Hashtbl.fold (fun seq () (lo, hi) -> (min lo seq, max hi seq)) tbl acc
      in
      let lo, hi = bounds ing (bounds gap (max_int, min_int)) in
      if lo <= hi then begin
        expected_batches := !expected_batches + (hi - lo + 1);
        for seq = lo to hi do
          let ingested = Hashtbl.mem ing seq and declared = Hashtbl.mem gap seq in
          if declared && not ingested then incr lost_batches
          else if (not ingested) && not declared then
            violate (Undeclared_loss { stream; seq })
        done
      end)
    (List.sort compare stream_ids);
  let loss_fraction =
    if !expected_batches = 0 then 0.0
    else float_of_int !lost_batches /. float_of_int !expected_batches
  in
  {
    violations = List.rev !violations;
    misleading_hints = misleading;
    windows_verified = !windows_verified;
    records_replayed = List.length records;
    max_delay = !max_delay;
    delays = List.rev !delays;
    declared_gaps = !declared_gaps;
    gap_events = !gap_events;
    lost_batches = !lost_batches;
    loss_fraction;
    degraded_windows =
      (let degraded = Hashtbl.copy gap_windows in
       Hashtbl.iter (fun w () -> Hashtbl.replace degraded w ()) late_drop_windows;
       List.sort compare (Hashtbl.fold (fun w () acc -> w :: acc) degraded []));
    late_drops = !late_drops;
    late_events = !late_events;
    corrections = Hashtbl.fold (fun _ gens acc -> acc + List.length gens) corr_gens 0;
    corrected_windows =
      List.sort compare (Hashtbl.fold (fun w _ acc -> w :: acc) corr_gens []);
  }

let pp_report fmt r =
  Format.fprintf fmt "replayed %d records, %d windows verified, max delay %d, %d misleading hints@."
    r.records_replayed r.windows_verified r.max_delay r.misleading_hints;
  if r.declared_gaps > 0 then
    Format.fprintf fmt
      "degradation: %d declared gap(s), %d batch(es) lost (%.1f%% of expected), ~%d event(s); \
       degraded windows: %s@."
      r.declared_gaps r.lost_batches (100.0 *. r.loss_fraction) r.gap_events
      (String.concat "," (List.map string_of_int r.degraded_windows));
  if r.late_drops > 0 then
    Format.fprintf fmt "late data: %d declared drop(s), ~%d event(s) shed past the watermark@."
      r.late_drops r.late_events;
  if r.corrections > 0 then
    Format.fprintf fmt "late data: %d correction(s) re-emitted over window(s) %s@." r.corrections
      (String.concat "," (List.map string_of_int r.corrected_windows));
  if r.violations = [] then Format.fprintf fmt "verdict: OK@."
  else begin
    Format.fprintf fmt "verdict: %d VIOLATION(S)@." (List.length r.violations);
    List.iter (fun v -> Format.fprintf fmt "  - %a@." pp_violation v) r.violations
  end

(* --- multi-epoch stitching ---------------------------------------------

   A recovered run presents one (manifest, batches) segment per boot
   epoch.  Stitching proves three cross-epoch properties before handing
   the concatenated records to the ordinary replay above:

   - the epoch chain is contiguous from 0 (a dropped epoch would be the
     place to hide a whole boot's worth of emissions);
   - each restart resumed from the *latest* checkpoint the presented
     log attests (an authentic-but-stale blob, or "this was a fresh
     run", is a rollback);
   - no window result was externalized in two different epochs (the
     exactly-once guarantee a replayed suffix could otherwise break).

   Trimming: a crashed epoch may have flushed batches after its last
   checkpoint; the next epoch regenerates them byte-identically.  The
   successor's authenticated [resume_batch_seq] says where the cut is,
   so duplicates between a crashed tail and its regeneration are
   resolved by construction, not by content comparison.  The rollback
   check deliberately runs on the *untrimmed* prior batches: checkpoint
   records past the claimed resume point are exactly the evidence of a
   rollback. *)

let verify_epochs ~key spec segments =
  let epoch_violations = ref [] in
  let violate v = epoch_violations := v :: !epoch_violations in
  let opened =
    List.map (fun (sealed, batches) -> (Epoch.open_ ~key sealed, batches)) segments
    |> List.sort (fun (a, _) (b, _) -> compare a.Epoch.epoch b.Epoch.epoch)
  in
  List.iteri
    (fun i (m, _) ->
      if m.Epoch.epoch <> i then violate (Missing_epoch { expected = i; got = m.Epoch.epoch }))
    opened;
  let arr = Array.of_list opened in
  let n = Array.length arr in
  let all_records =
    Array.map (fun (m, batches) -> (m, List.concat_map (fun b -> Log.open_batch ~key b) batches)) arr
  in
  (* Rollback: each epoch after the first must resume from the newest
     checkpoint attested by everything that came before it. *)
  let max_ckpt = ref (-1) in
  Array.iteri
    (fun i (m, records) ->
      if i > 0 && m.Epoch.resumed_from < !max_ckpt then
        violate
          (Checkpoint_rollback
             { epoch = m.Epoch.epoch; resumed_from = m.Epoch.resumed_from; latest = !max_ckpt });
      List.iter
        (function
          | Record.Checkpoint { seq; _ } -> if seq > !max_ckpt then max_ckpt := seq
          | _ -> ())
        records)
    all_records;
  (* Trim each epoch's batches to the earliest resume point of any later
     epoch (not just its immediate successor: a later fresh restart
     resuming at batch 0 invalidates every prior epoch's stream, or the
     stitch would carry overlapping batch ranges).  Re-open only the
     retained ones for the stitched replay. *)
  let retained =
    Array.mapi
      (fun i (m, batches) ->
        let limit = ref max_int in
        for j = i + 1 to n - 1 do
          limit := min !limit (fst arr.(j)).Epoch.resume_batch_seq
        done;
        (m, List.filter (fun b -> b.Log.seq < !limit) batches))
      arr
  in
  let retained_records =
    Array.map (fun (m, batches) -> (m, List.concat_map (fun b -> Log.open_batch ~key b) batches)) retained
  in
  (* Exactly-once across the restart gap: a window may only ever leave
     the TEE in one epoch of the retained stream. *)
  let emitted : (int, int) Hashtbl.t = Hashtbl.create 64 in
  Array.iter
    (fun (m, records) ->
      List.iter
        (function
          | Record.Egress { win_no; _ } -> (
              match Hashtbl.find_opt emitted win_no with
              | Some e0 when e0 <> m.Epoch.epoch ->
                  violate
                    (Duplicate_window_across_epochs
                       { window = win_no; first_epoch = e0; second_epoch = m.Epoch.epoch })
              | Some _ -> ()
              | None -> Hashtbl.replace emitted win_no m.Epoch.epoch)
          | _ -> ())
        records)
    retained_records;
  let stitched = List.concat_map snd (Array.to_list retained_records) in
  let base = verify spec stitched in
  { base with violations = List.rev !epoch_violations @ base.violations }

(* --- fleet-scope verification ------------------------------------------

   The fleet dimension adds one question per partition — "whose epoch
   chains may be stitched into one?" — and two fleet-wide invariants:
   every partition of every window egressed exactly once, somewhere.

   Stitching authority is the sealed handoff manifest: donor and
   recipient fragments are joined into one chain (then judged by
   [verify_epochs], independently per chain so one node's violation
   cannot taint another's verdict) only where a manifest names that
   exact donor epoch, recipient, and resume coordinates, all
   cross-checked against both logs.  Fragments left unlinked are judged
   alone — a recipient chain starting past epoch 0 then fails chain
   contiguity on its own — and any window egressed by two unlinked
   chains is a cross-edge duplicate: precisely the double-ingestion an
   omitted manifest would otherwise hide. *)

type edge_chains = {
  edge : int;
  chains : (int * (Epoch.sealed * Log.batch list) list) list;
}

type chain_report = { cr_partition : int; cr_edges : int list; cr_report : report }

type fleet_report = {
  fleet_violations : violation list;
  chain_reports : chain_report list;
  partitions_expected : int;
  partitions_present : int;
  fleet_windows : int;
  handoffs_verified : int;
}

let fleet_ok fr =
  fr.fleet_violations = [] && List.for_all (fun c -> ok c.cr_report) fr.chain_reports

(* One fragment: the contiguous run of boot epochs a single edge
   executed for one partition. *)
type fragment = {
  f_edge : int;
  f_segs : (Epoch.sealed * Log.batch list) list;
  f_manifests : Epoch.manifest list; (* opened, epoch-ascending *)
  f_first : int;
  f_last : int;
}

(* A chain under assembly: fragments joined by valid handoff manifests. *)
type group = {
  mutable g_frags : fragment list; (* chain order, oldest first *)
  mutable g_last : int; (* newest epoch in the chain *)
  mutable g_last_edge : int;
}

let records_of_segs ~key segs =
  List.concat_map (fun (_, batches) -> List.concat_map (fun b -> Log.open_batch ~key b) batches) segs

let verify_fleet ~key spec ~partitions ~windows ~edges ~handoffs =
  if partitions <= 0 then invalid_arg "Verifier.verify_fleet: partitions must be positive";
  let fleet_violations = ref [] in
  let violate v = fleet_violations := v :: !fleet_violations in
  let handoffs = List.map (fun s -> Handoff.open_ ~key s) handoffs in
  let handoffs_verified = ref 0 in
  let chain_reports = ref [] in
  let partitions_present = ref 0 in
  for p = 0 to partitions - 1 do
    let frags =
      List.concat_map
        (fun ec ->
          List.filter_map
            (fun (part, segs) ->
              if part <> p || segs = [] then None
              else begin
                let ms =
                  List.map (fun (s, _) -> Epoch.open_ ~key s) segs
                  |> List.sort (fun a b -> compare a.Epoch.epoch b.Epoch.epoch)
                in
                let f_first = (List.hd ms).Epoch.epoch in
                let f_last = (List.hd (List.rev ms)).Epoch.epoch in
                Some { f_edge = ec.edge; f_segs = segs; f_manifests = ms; f_first; f_last }
              end)
            ec.chains)
        edges
      |> List.sort (fun a b -> compare (a.f_first, a.f_edge) (b.f_first, b.f_edge))
    in
    if frags = [] then
      violate
        (Fleet_partition_loss { partition = p; missing_windows = windows; total_windows = windows })
    else begin
      incr partitions_present;
      (* Assemble chains: a fragment continues the open chain only under
         a valid manifest; otherwise it opens a chain of its own. *)
      let groups = ref [] in (* newest group first *)
      List.iter
        (fun f ->
          let continued =
            match !groups with
            | g :: _ when f.f_first = g.g_last + 1 -> (
                match
                  List.find_opt
                    (fun (h : Handoff.manifest) ->
                      h.Handoff.partition = p && h.Handoff.donor_epoch = g.g_last
                      && h.Handoff.recipient = f.f_edge)
                    handoffs
                with
                | Some h ->
                    let first_m = List.hd f.f_manifests in
                    let problems = ref [] in
                    if h.Handoff.donor <> g.g_last_edge then
                      problems := "manifest names a different donor edge" :: !problems;
                    if first_m.Epoch.resumed_from <> h.Handoff.resume_ckpt then
                      problems := "recipient resumed from a different checkpoint" :: !problems;
                    if first_m.Epoch.resume_batch_seq <> h.Handoff.resume_batch_seq then
                      problems := "recipient resumed at a different batch seq" :: !problems;
                    let donor_records =
                      records_of_segs ~key (List.concat_map (fun fr -> fr.f_segs) g.g_frags)
                    in
                    if
                      not
                        (List.exists
                           (function
                             | Record.Checkpoint { seq; _ } -> seq = h.Handoff.resume_ckpt
                             | _ -> false)
                           donor_records)
                    then problems := "donor log attests no such checkpoint" :: !problems;
                    if !problems = [] then begin
                      incr handoffs_verified;
                      true
                    end
                    else begin
                      violate
                        (Handoff_mismatch
                           {
                             partition = p;
                             donor = h.Handoff.donor;
                             recipient = f.f_edge;
                             reason = String.concat "; " (List.rev !problems);
                           });
                      (* The stitch claim exists; link so the chain is
                         judged as the presentation intends — the
                         mismatch violation already fails the fleet. *)
                      true
                    end
                | None -> false)
            | _ -> false
          in
          match !groups with
          | g :: _ when continued ->
              g.g_frags <- g.g_frags @ [ f ];
              g.g_last <- f.f_last;
              g.g_last_edge <- f.f_edge
          | g :: _ ->
              (* A second chain for the same partition: dual execution
                 with no (valid) stitching authority. *)
              (match
                 List.find_opt
                   (fun (h : Handoff.manifest) ->
                     h.Handoff.partition = p && h.Handoff.recipient = f.f_edge)
                   handoffs
               with
              | Some h ->
                  violate
                    (Handoff_mismatch
                       {
                         partition = p;
                         donor = h.Handoff.donor;
                         recipient = f.f_edge;
                         reason = "recipient chain does not resume at donor_epoch + 1";
                       })
              | None ->
                  violate
                    (Handoff_unattested
                       { partition = p; donor = g.g_last_edge; recipient = f.f_edge }));
              groups :=
                { g_frags = [ f ]; g_last = f.f_last; g_last_edge = f.f_edge } :: !groups
          | [] ->
              groups :=
                { g_frags = [ f ]; g_last = f.f_last; g_last_edge = f.f_edge } :: !groups)
        frags;
      let groups = List.rev !groups in
      (* Judge each chain independently. *)
      let degraded = Hashtbl.create 8 in
      List.iter
        (fun g ->
          let segs = List.concat_map (fun fr -> fr.f_segs) g.g_frags in
          let r = verify_epochs ~key spec segs in
          List.iter (fun w -> Hashtbl.replace degraded w ()) r.degraded_windows;
          chain_reports :=
            {
              cr_partition = p;
              cr_edges = List.map (fun fr -> fr.f_edge) g.g_frags;
              cr_report = r;
            }
            :: !chain_reports)
        groups;
      (* Fleet-scope exactly-once: each window of the partition must
         leave some edge exactly once across chains.  Within one chain,
         [verify_epochs] has already resolved checkpoint-tail replays by
         manifest-authorized trimming; across chains there is no such
         authority, so raw overlap is a duplicate. *)
      let emitted : (int, int) Hashtbl.t = Hashtbl.create 32 in (* window -> edge *)
      List.iter
        (fun g ->
          let seen_here = Hashtbl.create 32 in
          List.iter
            (fun fr ->
              List.iter
                (function
                  | Record.Egress { win_no; _ } when not (Hashtbl.mem seen_here win_no) -> (
                      Hashtbl.replace seen_here win_no ();
                      match Hashtbl.find_opt emitted win_no with
                      | Some e0 ->
                          violate
                            (Cross_edge_duplicate
                               {
                                 partition = p;
                                 window = win_no;
                                 first_edge = e0;
                                 second_edge = fr.f_edge;
                               })
                      | None -> Hashtbl.replace emitted win_no fr.f_edge)
                  | _ -> ())
                (records_of_segs ~key fr.f_segs))
            g.g_frags)
        groups;
      (* Fleet-scope completeness: windows egressed nowhere and covered
         by no declared gap are undeclared loss at fleet scope. *)
      let missing = ref 0 in
      for w = 0 to windows - 1 do
        if not (Hashtbl.mem emitted w) && not (Hashtbl.mem degraded w) then incr missing
      done;
      if !missing > 0 then
        violate
          (Fleet_partition_loss
             { partition = p; missing_windows = !missing; total_windows = windows })
    end
  done;
  {
    fleet_violations = List.rev !fleet_violations;
    chain_reports = List.rev !chain_reports;
    partitions_expected = partitions;
    partitions_present = !partitions_present;
    fleet_windows = windows;
    handoffs_verified = !handoffs_verified;
  }

let pp_fleet_report fmt fr =
  Format.fprintf fmt "fleet: %d/%d partition(s) present over %d window(s), %d handoff(s) verified@."
    fr.partitions_present fr.partitions_expected fr.fleet_windows fr.handoffs_verified;
  List.iter
    (fun c ->
      Format.fprintf fmt "partition %d via edge(s) %s: %s@." c.cr_partition
        (String.concat "->" (List.map string_of_int c.cr_edges))
        (if ok c.cr_report then "OK"
         else Printf.sprintf "%d violation(s)" (List.length c.cr_report.violations));
      List.iter
        (fun v -> Format.fprintf fmt "  - %a@." pp_violation v)
        c.cr_report.violations)
    fr.chain_reports;
  if fr.fleet_violations = [] then
    (if List.for_all (fun c -> ok c.cr_report) fr.chain_reports then
       Format.fprintf fmt "fleet verdict: OK@."
     else Format.fprintf fmt "fleet verdict: CHAIN VIOLATION(S)@.")
  else begin
    Format.fprintf fmt "fleet verdict: %d FLEET VIOLATION(S)@."
      (List.length fr.fleet_violations);
    List.iter (fun v -> Format.fprintf fmt "  - %a@." pp_violation v) fr.fleet_violations
  end

(* --- tenant-scope verification -----------------------------------------

   Multi-tenant consolidation (one enclave, N pipelines) keeps the
   verifier's unit of judgment the single tenant: each tenant's audit
   sub-stream is MAC'd under its own KDF-derived key and replayed through
   the ordinary [verify] completely independently, so one tenant's
   violation — or an unverifiable stream — never taints another's
   verdict.  There is deliberately no cross-tenant invariant here: the
   in-enclave namespace guard (Dataplane.Cross_tenant_ref) is what keeps
   dataflow from crossing tenants, and a guard failure aborts the run
   long before any audit bytes reach us. *)

let tenant_key ~base tenant =
  if tenant = 0 then base
  else Sbt_crypto.Kdf.derive ~master:base ~label:(Printf.sprintf "tenant-%d:egress" tenant) 16

type tenant_chain = { tenant : int; t_spec : spec; t_audit : Log.batch list }
type tenant_report = { tn_tenant : int; tn_report : report }

type tenants_report = {
  tenant_reports : tenant_report list;
  tenants_total : int;
  tenants_clean : int;
  tenants_degraded : int;
  tenants_violating : int;
}

let tenants_ok tr = List.for_all (fun t -> ok t.tn_report) tr.tenant_reports

let empty_report violations =
  {
    violations;
    misleading_hints = 0;
    windows_verified = 0;
    records_replayed = 0;
    max_delay = 0;
    delays = [];
    declared_gaps = 0;
    gap_events = 0;
    lost_batches = 0;
    loss_fraction = 0.0;
    degraded_windows = [];
    late_drops = 0;
    late_events = 0;
    corrections = 0;
    corrected_windows = [];
  }

let verify_tenants ~key chains =
  let reports =
    List.map
      (fun c ->
        let k = tenant_key ~base:key c.tenant in
        let report =
          match List.concat_map (fun b -> Log.open_batch ~key:k b) c.t_audit with
          | records -> verify c.t_spec records
          | exception Invalid_argument reason ->
              empty_report [ Tenant_log_unverifiable { tenant = c.tenant; reason } ]
        in
        { tn_tenant = c.tenant; tn_report = report })
      (List.sort (fun a b -> compare a.tenant b.tenant) chains)
  in
  let clean =
    List.length
      (List.filter (fun t -> ok t.tn_report && t.tn_report.declared_gaps = 0) reports)
  in
  let degraded =
    List.length
      (List.filter (fun t -> ok t.tn_report && t.tn_report.declared_gaps > 0) reports)
  in
  let violating = List.length (List.filter (fun t -> not (ok t.tn_report)) reports) in
  {
    tenant_reports = reports;
    tenants_total = List.length reports;
    tenants_clean = clean;
    tenants_degraded = degraded;
    tenants_violating = violating;
  }

let pp_tenants_report fmt tr =
  Format.fprintf fmt "tenants: %d total — %d clean, %d degraded, %d violating@."
    tr.tenants_total tr.tenants_clean tr.tenants_degraded tr.tenants_violating;
  List.iter
    (fun t ->
      let r = t.tn_report in
      if ok r then
        if r.declared_gaps > 0 then
          Format.fprintf fmt "tenant %d: DEGRADED (%.1f%% declared loss over %d window(s))@."
            t.tn_tenant (100.0 *. r.loss_fraction)
            (List.length r.degraded_windows)
        else Format.fprintf fmt "tenant %d: OK (%d window(s))@." t.tn_tenant r.windows_verified
      else begin
        Format.fprintf fmt "tenant %d: %d VIOLATION(S)@." t.tn_tenant (List.length r.violations);
        List.iter (fun v -> Format.fprintf fmt "  - %a@." pp_violation v) r.violations
      end)
    tr.tenant_reports
