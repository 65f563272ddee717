(** End-to-end experiment runner.

    Wraps one (pipeline, engine version) pair: executes the workload once
    for real under the DES (recording the task graph, memory behaviour,
    audit records and results), then replays the trace at the requested
    core counts to find the maximum sustainable throughput under the
    paper's output-delay targets — the methodology behind Figure 7. *)

type throughput_point = {
  cores : int;
  events_per_sec : float;
  mb_per_sec : float;
  delay_ms : float;  (** worst window delay at the reported rate *)
  utilization : float;
}

type outcome = {
  version : Dataplane.version;
  pipeline_name : string;
  run : Runtime.run_result;  (** the kept recording *)
  points : throughput_point list;
  mem_steady_mb : float;  (** mean committed secure memory at window closes *)
  mem_high_water_mb : float;
  audit_records : int;
  audit_raw_bytes : int;
  audit_compressed_bytes : int;
  verified : bool;  (** cloud verifier replayed the audit log cleanly *)
  verifier_report : Sbt_attest.Verifier.report;
  results_corrected : (int * Dataplane.sealed_result) list;
      (** the cloud-side merge: the recording's results with each
          corrected window replaced by its highest-generation correction
          re-sealed under the canonical egress nonce
          ({!Dataplane.reseal_correction}) — byte-comparable against an
          in-order run's results *)
}

val merge_corrections :
  egress_key:bytes ->
  (int * Dataplane.sealed_result) list ->
  (int * int * Dataplane.sealed_result) list ->
  (int * Dataplane.sealed_result) list
(** [merge_corrections ~egress_key results corrections] applies the
    cloud-side merge in order: for every window the highest-generation
    correction wins, is re-sealed under the canonical egress nonce and
    replaces (or, for a window with no original egress, joins) the
    sealed results; output sorted by window. *)

val run :
  ?cores_list:int list ->
  ?target_delay_ms:float ->
  ?repeats:int ->
  Runtime.config ->
  Pipeline.t ->
  Sbt_net.Frame.t list ->
  outcome
(** Record the pipeline once on [cfg.cores] virtual cores — the
    recording cores fix the schedule and so every audit timestamp — then search
    the maximum sustainable rate at each of [cores_list] (default
    [\[2;4;8\]]) under a [target_delay_ms] output-delay target (default
    500 ms).  [repeats > 1] records several times and keeps the cheapest
    trace, suppressing host measurement noise; pointless under a
    deterministic config, where every recording is identical.  A tracer
    in [cfg] records the kept run's virtual-time spans (use
    [repeats = 1]: the buffer is reset before each repeat). *)

val pp_outcome : Format.formatter -> outcome -> unit
