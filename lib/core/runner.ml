module D = Dataplane

type throughput_point = {
  cores : int;
  events_per_sec : float;
  mb_per_sec : float;
  delay_ms : float;
  utilization : float;
}

type outcome = {
  version : D.version;
  pipeline_name : string;
  run : Runtime.run_result;
  points : throughput_point list;
  mem_steady_mb : float;
  mem_high_water_mb : float;
  audit_records : int;
  audit_raw_bytes : int;
  audit_compressed_bytes : int;
  verified : bool;
  verifier_report : Sbt_attest.Verifier.report;
  results_corrected : (int * D.sealed_result) list;
}

let mean = function
  | [] -> 0.0
  | l -> List.fold_left ( +. ) 0.0 (List.map float_of_int l) /. float_of_int (List.length l)

(* The cloud-side correction merge: for every corrected window keep the
   highest generation, re-seal it under the canonical egress nonce
   ({!Dataplane.reseal_correction}) and splice it over the original
   egress (or in, for a window whose only output was a correction).
   Result: ascending-window sealed output byte-compatible with an
   in-order run. *)
let merge_corrections ~egress_key results corrections =
  let best : (int, int * D.sealed_result) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (w, gen, s) ->
      match Hashtbl.find_opt best w with
      | Some (g, _) when g >= gen -> ()
      | _ -> Hashtbl.replace best w (gen, s))
    corrections;
  let merged =
    List.map
      (fun (w, s) ->
        match Hashtbl.find_opt best w with
        | Some (gen, c) ->
            Hashtbl.remove best w;
            (w, D.reseal_correction ~egress_key ~gen c)
        | None -> (w, s))
      results
  in
  let extra =
    Hashtbl.fold
      (fun w (gen, c) acc -> (w, D.reseal_correction ~egress_key ~gen c) :: acc)
      best []
  in
  List.sort (fun (a, _) (b, _) -> compare a b) (merged @ extra)

let run ?(cores_list = [ 2; 4; 8 ]) ?(target_delay_ms = 500.0) ?(repeats = 1)
    (cfg : Runtime.config) (pipe : Pipeline.t) frames =
  let version = cfg.Runtime.dp_config.D.version in
  let tracer = cfg.Runtime.dp_config.D.tracer in
  let record () =
    (* With repeats > 1 the trace buffer would accumulate every
       recording; keep only the latest (callers wanting a trace use
       repeats = 1, where latest = kept). *)
    Option.iter Sbt_obs.Tracer.reset tracer;
    (* The platform's switch and copy tallies would accumulate the same
       way; each recording's stats count that recording alone. *)
    Sbt_tz.Platform.reset_accounting cfg.Runtime.dp_config.D.platform;
    Gc.full_major ();
    Runtime.run cfg pipe frames
  in
  (* Host noise shows up as inflated task costs; repeated recordings keep
     the least-noisy (cheapest) trace. *)
  let r = ref (record ()) in
  for _ = 2 to repeats do
    let r' = record () in
    if
      Sbt_sim.Trace.total_cost_ns r'.Runtime.trace
      < Sbt_sim.Trace.total_cost_ns !r.Runtime.trace
    then r := r'
  done;
  let r = !r in
  let egress_key = cfg.Runtime.dp_config.D.egress_key in
  let bytes_per_event = Event.bytes_per_event pipe.Pipeline.schema in
  let points =
    List.map
      (fun cores ->
        let res =
          Sbt_sim.Rate_search.max_rate ~trace:r.Runtime.trace ~cores
            ~target_delay_ns:(target_delay_ms *. 1e6)
            ()
        in
        {
          cores;
          events_per_sec = res.Sbt_sim.Rate_search.rate_eps;
          mb_per_sec =
            res.Sbt_sim.Rate_search.rate_eps *. float_of_int bytes_per_event /. 1e6;
          delay_ms = res.Sbt_sim.Rate_search.delay_at_rate_ns /. 1e6;
          utilization = res.Sbt_sim.Rate_search.utilization;
        })
      cores_list
  in
  (* Cloud-side verification: decode the signed batches and replay. *)
  let records =
    List.concat_map
      (fun b -> Sbt_attest.Log.open_batch ~key:egress_key b)
      r.Runtime.audit
  in
  let report = Sbt_attest.Verifier.verify r.Runtime.verifier_spec records in
  let verified =
    match version with
    | D.Insecure -> true (* no attestation in the insecure baseline *)
    | D.Full | D.Clear_ingress | D.Io_via_os -> Sbt_attest.Verifier.ok report
  in
  let audit_records = List.length records in
  let audit_raw = Sbt_attest.Columnar.raw_size records in
  let audit_compressed =
    List.fold_left (fun acc b -> acc + Bytes.length b.Sbt_attest.Log.payload) 0 r.Runtime.audit
  in
  {
    version;
    pipeline_name = pipe.Pipeline.name;
    run = r;
    points;
    mem_steady_mb = mean r.Runtime.mem_samples_bytes /. 1e6;
    mem_high_water_mb = float_of_int r.Runtime.pool_high_water_bytes /. 1e6;
    audit_records;
    audit_raw_bytes = audit_raw;
    audit_compressed_bytes = audit_compressed;
    verified;
    verifier_report = report;
    results_corrected = merge_corrections ~egress_key r.Runtime.results r.Runtime.corrections;
  }

let pp_outcome fmt o =
  Format.fprintf fmt "%s / %s: " o.pipeline_name (D.version_name o.version);
  List.iter
    (fun p ->
      Format.fprintf fmt "%dc=%.2fMev/s (%.1fMB/s, delay %.0fms) " p.cores
        (p.events_per_sec /. 1e6) p.mb_per_sec p.delay_ms)
    o.points;
  Format.fprintf fmt "mem=%.0fMB verified=%b@." o.mem_steady_mb o.verified
