module U = Sbt_umem.Uarray
module Alloc = Sbt_umem.Allocator
module Pool = Sbt_umem.Page_pool
module P = Sbt_prim.Primitive
module F = Sbt_prim.Fused
module Tz = Sbt_tz

type version = Full | Clear_ingress | Io_via_os | Insecure

let version_name = function
  | Full -> "StreamBox-TZ"
  | Clear_ingress -> "SBT ClearIngress"
  | Io_via_os -> "SBT IOviaOS"
  | Insecure -> "Insecure"

(* A tenant namespace: the enclave-level ownership map for opaque refs
   when several tenant pipelines share one TEE.  Every ref this data
   plane mints is recorded against [ns_tenant] in the shared [ns_owners]
   table; any incoming ref owned by a different tenant is rejected
   in-TEE with {!Cross_tenant_ref} — a confused (or malicious) control
   plane cannot cross-wire one tenant's buffers into another's pipeline.
   The table is host-side bookkeeping: no virtual time, no RNG draws, no
   audit bytes, so installing a namespace never perturbs observables. *)
type namespace = { ns_tenant : int; ns_owners : (int64, int) Hashtbl.t }

(* What the TEE does with a record whose window already closed.  The
   policy is part of the attestation surface: anything but [Silent]
   registers as a "tee.late_policy" gauge in the quoted metrics snapshot,
   and the verifier holds the audit stream to the declared code. *)
type late_policy = Silent | Drop_declare | Retract_reemit

let late_policy_code = function Silent -> 0 | Drop_declare -> 1 | Retract_reemit -> 2

let late_policy_name = function
  | Silent -> "silent"
  | Drop_declare -> "drop-declare"
  | Retract_reemit -> "retract-reemit"

type config = {
  version : version;
  platform : Tz.Platform.t;
  alloc_mode : Alloc.mode;
  sort_algorithm : Sbt_prim.Sort.algorithm;
  ingress_key : bytes;
  egress_key : bytes;
  audit_flush_every : int;
  audit_enabled : bool;
  backpressure_threshold : float;
  adaptive_backpressure : bool;
  seed : int64;
  fault_plan : Sbt_fault.Fault.plan;
  late_policy : late_policy;
  tracer : Sbt_obs.Tracer.t option;
  pool_budget_bytes : int option;
      (* secure-pool budget override (page-granular tenant quotas);
         [None] = the platform's full secure-DRAM region *)
  namespace : namespace option;
}

module Config = struct
  type t = config

  let make ?(version = Full) ?(cores = 8) ?(secure_mb = 512) ?cost ?(deterministic = false)
      ?platform ?(alloc_mode = Alloc.Hint_guided) ?(sort_algorithm = Sbt_prim.Sort.Radix)
      ?(ingress_key = Bytes.of_string "sbt-ingress-k16!")
      ?(egress_key = Bytes.of_string "sbt-egress-key16")
      ?(audit_flush_every = 256) ?audit_enabled ?(backpressure_threshold = 0.90)
      ?(adaptive_backpressure = false) ?(seed = 42L)
      ?(fault_plan = Sbt_fault.Fault.none) ?(late_policy = Silent) ?tracer
      ?pool_budget_bytes ?namespace () =
    let platform =
      match platform with
      | Some p -> p
      | None ->
          let cost =
            match (cost, version) with
            | Some c, _ -> c
            | None, Insecure -> Tz.Cost_model.free
            | None, (Full | Clear_ingress | Io_via_os) -> Tz.Cost_model.default
          in
          let cost = if deterministic then { cost with Tz.Cost_model.host_scale = 0.0 } else cost in
          Tz.Platform.create ~cores ~cost ~secure_mb ()
    in
    let audit_enabled =
      match (audit_enabled, version) with
      | Some b, _ -> b
      | None, Insecure -> false
      | None, (Full | Clear_ingress | Io_via_os) -> true
    in
    {
      version;
      platform;
      alloc_mode;
      sort_algorithm;
      ingress_key;
      egress_key;
      audit_flush_every;
      audit_enabled;
      backpressure_threshold;
      adaptive_backpressure;
      seed;
      fault_plan;
      late_policy;
      tracer;
      pool_budget_bytes;
      namespace;
    }
end

type hint = H_after of int64 | H_parallel

type param =
  | P_key_field of int
  | P_value_field of int
  | P_ts_field of int
  | P_window_size of int
  | P_slide of int
  | P_k of int
  | P_lo of int32
  | P_hi of int32
  | P_shift of int
  | P_fields of int array
  | P_session_gap of int

type windowing = {
  segment : param list;
  first_open : int;
  plan : (P.t * param list) list list;
  stage_hints : (int * hint list) list;
}

type request =
  | R_ingest_events of {
      payload : bytes; encrypted : bool; stream : int; seq : int; mac : bytes;
      windowing : windowing option;
    }
  | R_ingest_watermark of { value : int }
  | R_declare_gap of {
      stream : int;
      seq : int;
      events : int;
      windows : int list;
      reason : Sbt_attest.Record.gap_reason;
    }
  | R_invoke of {
      chain : (P.t * param list) list;
      inputs : int64 list;
      trigger : int option;
      hints : hint list;
      retire_inputs : bool;
    }
  | R_egress of { input : int64; window : int }
  | R_late_drop of { input : int64; window : int }
  | R_egress_correction of { input : int64; window : int; gen : int }
  | R_install_udf of { udf : Udf.t; cert : bytes }
  | R_invoke_udf of {
      name : string;
      version : int;
      inputs : int64 list;
      trigger : int option;
      value_field : int;
      hints : hint list;
      retire_inputs : bool;
      state_output : bool;
    }
  | R_retire of { input : int64 }
  | R_checkpoint of { control : bytes; watermark : int }

type output = { win : int; ref_ : int64; events : int }
type sealed_result = { window : int; cipher : bytes; tag : bytes; events : int; width : int }

type response =
  | Rs_outputs of output list
  | Rs_watermark of { audit_id : int; value : int }
  | Rs_egress of sealed_result
  | Rs_ingested of { outs : output list; stalled_ns : float }
  | Rs_checkpoint of { blob : bytes; seq : int }

exception Rejected of string
exception Overloaded of { stalled_ns : float }

exception Cross_tenant_ref of { ref_ : int64; owner : int; tenant : int }
(* A reference minted for one tenant arrived at another tenant's
   dispatch.  Distinct from {!Opaque.Invalid_reference} (a fabricated or
   stale ref): the ref is live in the enclave, just not this tenant's —
   the namespace check fires before the per-tenant table lookup ever
   sees it. *)

(* Internal SMC message wrappers so the entire surface is the paper's
   four entries: init, finalize, debug, and one shared invoke. *)
type rpc = Rpc_init | Rpc_finalize | Rpc_debug | Rpc_op of request
type rpc_resp = Rr_unit | Rr_debug of string | Rr_op of response

type t = {
  cfg : config;
  pool : Pool.t;
  alloc : Alloc.t;
  refs : Opaque.t;
  log : Sbt_attest.Log.t;
  rng : Sbt_crypto.Rng.t;
  smc : (rpc, rpc_resp) Tz.Smc.t;
  mutable now_ns : float;
  mutable compute_ns : float;
  mutable mem_ns : float;
  mutable crypto_ns : float;
  mutable ingest_ns : float;
  mutable invocations : int;
  mutable events_ingested : int;
  mutable bytes_ingested : int;
  mutable backpressure_stalls : int;
  mutable sheds : int;
  mutable consecutive_sheds : int;
  mutable uploaded : Sbt_attest.Log.batch list; (* newest first *)
  mutable next_ckpt_seq : int;
  mutable ingest_width : int; (* set per stream schema via first ingest params *)
  (* Session-window state (only touched when a Segment invocation carries
     P_session_gap).  Assignment is global and in-order over the event
     stream: a new session opens after [sess_gap] ticks of event-time
     silence.  [sess_ends] remembers each session's last event time so
     egress can refuse to seal a session the watermark has not closed. *)
  mutable sess_gap : int; (* 0 = no session windowing seen yet *)
  mutable sess_last_ts : int;
  mutable sess_next_id : int;
  sess_ends : (int, int) Hashtbl.t;
  mutable last_wm : int; (* highest ingested watermark (-1 before any) *)
  udfs : (string * int, Udf.t) Hashtbl.t; (* certified-and-installed UDFs *)
  mutable last_chain : int list * bytes * bytes; (* (ops, params, chain hash) last hashed *)
  (* TEE-side metrics registry: never read across the boundary directly;
     exported only as an attested snapshot via [metrics_quote]. *)
  reg : Sbt_obs.Metrics.t;
  m_events : Sbt_obs.Metrics.counter;
  m_bytes : Sbt_obs.Metrics.counter;
  m_sheds : Sbt_obs.Metrics.counter;
  m_stalls : Sbt_obs.Metrics.counter;
  m_invocations : Sbt_obs.Metrics.counter;
  m_gaps : Sbt_obs.Metrics.counter;
  m_batch_events : Sbt_obs.Metrics.histogram;
  m_pool : Sbt_obs.Metrics.gauge;
}

type stats = {
  compute_ns : float;
  mem_ns : float;
  crypto_ns : float;
  ingest_ns : float;
  switch_pairs : int;
  modeled_switch_ns : float;
  modeled_copy_ns : float;
  invocations : int;
  events_ingested : int;
  bytes_ingested : int;
  backpressure_stalls : int;
  sheds : int;
  smc_busy_rejections : int;
}

let now_us t = int_of_float (t.now_ns /. 1e3)

let append_record t r =
  if t.cfg.audit_enabled then
    match Sbt_attest.Log.append t.log r with
    | Some batch -> t.uploaded <- batch :: t.uploaded
    | None -> ()

let flush_log t =
  if t.cfg.audit_enabled then
    match Sbt_attest.Log.flush t.log with
    | Some batch -> t.uploaded <- batch :: t.uploaded
    | None -> ()

(* --- timing helpers: measured host nanoseconds per cost category ------ *)

let timed (t : t) category f =
  let t0 = Sbt_sim.Clock.now_ns () in
  let r = f () in
  let dt = Sbt_sim.Clock.elapsed_ns ~since:t0 in
  (match category with
  | `Compute -> t.compute_ns <- t.compute_ns +. dt
  | `Mem -> t.mem_ns <- t.mem_ns +. dt
  | `Crypto -> t.crypto_ns <- t.crypto_ns +. dt
  | `Ingest -> t.ingest_ns <- t.ingest_ns +. dt);
  r

let measured_total (t : t) = t.compute_ns +. t.mem_ns +. t.crypto_ns +. t.ingest_ns

(* One "prim" span per primitive/udf/seal execution, at the TEE's virtual
   clock.  The duration is the measured-time delta with crypto charged at
   the cost model's crypto_scale, all scaled by host_scale — the same
   virtual quantity the DES charges — so at host_scale 0 even the trace
   bytes are deterministic. *)
let traced_prim t name f =
  match t.cfg.tracer with
  | None -> f ()
  | Some tr ->
      let ts = t.now_ns and before = measured_total t and crypto_before = t.crypto_ns in
      let r = f () in
      let cost = t.cfg.platform.Tz.Platform.cost in
      let crypto_adjust =
        (t.crypto_ns -. crypto_before) *. (cost.Tz.Cost_model.crypto_scale -. 1.0)
      in
      let dur = (measured_total t -. before +. crypto_adjust) *. cost.Tz.Cost_model.host_scale in
      Sbt_obs.Tracer.complete tr ~pid:1 ~tid:0 ~cat:"prim" ~name ~ts_ns:ts ~dur_ns:dur ();
      r

let hint_of t = function
  | Some (H_after r) -> Alloc.Consumed_after (Opaque.resolve t.refs r)
  | Some H_parallel -> Alloc.Consumed_in_parallel
  | None -> Alloc.No_hint

(* Hints are advisory and arrive from the untrusted control plane; a hint
   naming a dead reference must not fault the data plane. *)
let safe_hint t h = try hint_of t h with Opaque.Invalid_reference _ -> Alloc.No_hint

let encode_hint_for_audit t h out_id =
  let pred =
    match h with
    | H_after r -> (
        try U.id (Opaque.resolve t.refs r) with Opaque.Invalid_reference _ -> 0xFFFFFFFF)
    | H_parallel -> 0xFFFFFFFF
  in
  Int64.logor (Int64.shift_left (Int64.of_int pred) 32) (Int64.of_int out_id)

let alloc_out t ?hint ?(scope = U.Streaming) ~producer ~width ~capacity () =
  timed t `Mem (fun () ->
      Alloc.alloc t.alloc ~hint:(safe_hint t hint) ~scope ~producer ~width ~capacity ())

let produce t ua = timed t `Mem (fun () -> Alloc.produce t.alloc ua)

(* --- tenant namespace -------------------------------------------------- *)
(* When several tenant pipelines share one enclave, every ref minted for a
   tenant is recorded in the shared owner map.  [guard_ref] fires on refs
   that are live but foreign — the confused-control-plane case — before
   the per-tenant table lookup turns them into Invalid_reference.  All of
   this is host-side bookkeeping on the shared Hashtbl: it never touches
   virtual time, the RNG, or audit bytes, so a namespaced run is
   observably identical to a solo run. *)

let guard_ref t r =
  match t.cfg.namespace with
  | None -> ()
  | Some ns -> (
      match Hashtbl.find_opt ns.ns_owners r with
      | Some owner when owner <> ns.ns_tenant ->
          raise (Cross_tenant_ref { ref_ = r; owner; tenant = ns.ns_tenant })
      | _ -> ())

let mint_ref t ua =
  let r = Opaque.register t.refs ua in
  (match t.cfg.namespace with
  | Some ns -> Hashtbl.replace ns.ns_owners r ns.ns_tenant
  | None -> ());
  r

let drop_ref t r =
  Opaque.remove t.refs r;
  match t.cfg.namespace with
  | Some ns -> Hashtbl.remove ns.ns_owners r
  | None -> ()

let retire_ref t r =
  guard_ref t r;
  let ua = Opaque.resolve t.refs r in
  timed t `Mem (fun () ->
      (* State uArrays outlive primitive executions; never retire them
         behind the control plane's back. *)
      match U.scope ua with
      | U.State -> ()
      | U.Streaming | U.Temporary ->
          Alloc.retire t.alloc ua;
          drop_ref t r)

let find_param params f = List.find_map f params

let key_field params default =
  Option.value ~default (find_param params (function P_key_field k -> Some k | _ -> None))

let value_field params default =
  Option.value ~default (find_param params (function P_value_field v -> Some v | _ -> None))

(* The kernels read records unchecked, so the TEE checks every field
   parameter against the width of each input it indexes before any
   output is allocated. *)
let in_width uas f =
  if f < 0 || List.exists (fun ua -> f >= U.width ua) uas then
    raise (Rejected (Printf.sprintf "invoke: field %d outside the input records" f));
  f

(* Merges and Concat copy whole records into one output: their inputs
   must share one width. *)
let one_width what = function
  | [] -> raise (Rejected (what ^ ": no inputs"))
  | ua :: rest ->
      if List.exists (fun r -> U.width r <> U.width ua) rest then
        raise (Rejected (what ^ ": inputs of different widths"));
      U.width ua

(* --- ingestion -------------------------------------------------------- *)

let unpack_payload t ~producer payload width =
  let bytes_len = Bytes.length payload in
  if bytes_len mod (4 * width) <> 0 then raise (Rejected "ingest: payload not a record multiple");
  let events = bytes_len / (4 * width) in
  let ua = alloc_out t ~hint:H_parallel ~producer ~width ~capacity:events () in
  timed t `Ingest (fun () ->
      let first = U.reserve ua events in
      assert (first = 0);
      let buf = U.raw ua and fields = events * width in
      (* Two fields per 64-bit read, the low half first; an odd last one alone. *)
      for j = 0 to (fields / 2) - 1 do
        let v = Bytes.get_int64_le payload (8 * j) in
        Bigarray.Array1.unsafe_set buf (2 * j) (Int64.to_int32 v);
        Bigarray.Array1.unsafe_set buf ((2 * j) + 1) (Int64.to_int32 (Int64.shift_right_logical v 32))
      done;
      if fields land 1 = 1 then
        Bigarray.Array1.unsafe_set buf (fields - 1) (Bytes.get_int32_le payload (4 * (fields - 1))));
  produce t ua;
  (ua, events)

let do_ingest_events t ~payload ~encrypted ~stream ~seq ~mac =
  let platform = t.cfg.platform in
  (* Authenticated links: verify the frame tag over the wire payload
     before anything else is spent on the batch.  Damage anywhere in
     header or payload surfaces here as a clean rejection. *)
  if Bytes.length mac > 0 then begin
    let events = Bytes.length payload / (4 * t.ingest_width) in
    let valid =
      timed t `Crypto (fun () ->
          Sbt_net.Frame.payload_mac_valid ~key:t.cfg.ingress_key ~stream ~seq ~events ~mac
            payload)
    in
    if not valid then raise (Rejected "ingest: frame authentication failed")
  end;
  (* Pool pressure the backpressure stall cannot absorb: shed the batch
     instead of letting the allocator raise mid-ingest.  The refusal
     carries an escalating stall so a persistently full pool slows the
     source down harder each time (load shedding, not crash). *)
  let forced_shed = Sbt_fault.Fault.pool_sheds t.cfg.fault_plan ~stream ~seq in
  (* A quota-constrained tenant (pool_budget_bytes) sheds at admission
     time, before operator state can outgrow what is left: a batch is
     admitted only while committed bytes stay under 1/3 of the budget.
     Window-close kernels (sort/merge) can transiently allocate about
     as much again as the accumulated state, so admitting up to B/3
     keeps the close-time peak under B.  Unconstrained pools keep the
     exact historical check (payload fits), so default runs are
     byte-identical. *)
  let quota_shed =
    match t.cfg.pool_budget_bytes with
    | Some b -> Pool.committed_bytes t.pool + Bytes.length payload > b / 3
    | None -> false
  in
  if
    forced_shed || quota_shed
    || Pool.available_pages t.pool < Pool.pages_for_bytes (Bytes.length payload)
  then begin
    t.sheds <- t.sheds + 1;
    Sbt_obs.Metrics.incr t.m_sheds;
    t.consecutive_sheds <- t.consecutive_sheds + 1;
    let stalled_ns =
      Float.min 16_000_000.0 (1_000_000.0 *. float_of_int (1 lsl min 4 t.consecutive_sheds))
    in
    raise (Overloaded { stalled_ns })
  end;
  (* Backpressure: above the threshold the source is stalled before this
     batch may enter (paper §4.2). *)
  let pressure =
    float_of_int (Pool.committed_bytes t.pool) /. float_of_int (Pool.budget_bytes t.pool)
  in
  let stalled_ns =
    if pressure > t.cfg.backpressure_threshold then begin
      t.backpressure_stalls <- t.backpressure_stalls + 1;
      Sbt_obs.Metrics.incr t.m_stalls;
      if t.cfg.adaptive_backpressure then begin
        (* Automatic flow control (the paper's stated future work, 4.2):
           the stall grows with how deep past the threshold the pool is,
           so the source slows proportionally to the backlog instead of by
           a fixed step. *)
        let over =
          (pressure -. t.cfg.backpressure_threshold)
          /. Float.max 0.01 (1.0 -. t.cfg.backpressure_threshold)
        in
        Float.min 10_000_000.0 (Float.max 100_000.0 (10_000_000.0 *. over))
      end
      else 1_000_000.0 (* fixed 1 ms source stall *)
    end
    else 0.0
  in
  let payload =
    match t.cfg.version with
    | Io_via_os ->
        (* Data landed in the untrusted OS and is copied across the TEE
           boundary: check the normal-world NIC, do the copy, charge it. *)
        Tz.Tzpc.check_access platform.Tz.Platform.tzpc ~accessor:Tz.World.Normal
          ~peripheral:"usb-eth";
        Tz.Platform.charge_copy platform ~bytes_len:(Bytes.length payload);
        timed t `Ingest (fun () -> Bytes.copy payload)
    | Full | Clear_ingress ->
        (* Trusted IO: the secure world owns the NIC; no boundary copy. *)
        Tz.Tzpc.check_access platform.Tz.Platform.tzpc ~accessor:Tz.World.Secure ~peripheral:"net0";
        payload
    | Insecure -> payload
  in
  let payload =
    if encrypted then
      timed t `Crypto (fun () ->
          let ctr = Sbt_crypto.Ctr.create ~key:t.cfg.ingress_key ~nonce:(Int64.of_int stream) in
          let p = Bytes.copy payload in
          Sbt_crypto.Ctr.xcrypt ctr ~pos:(Int64.shift_left (Int64.of_int seq) 32) p 0
            (Bytes.length p);
          p)
    else payload
  in
  let ua, events = unpack_payload t ~producer:P.ingress_id payload t.ingest_width in
  t.consecutive_sheds <- 0;
  t.events_ingested <- t.events_ingested + events;
  t.bytes_ingested <- t.bytes_ingested + Bytes.length payload;
  Sbt_obs.Metrics.add t.m_events events;
  Sbt_obs.Metrics.add t.m_bytes (Bytes.length payload);
  Sbt_obs.Metrics.observe t.m_batch_events (float_of_int events);
  Sbt_obs.Metrics.set_gauge t.m_pool (float_of_int (Pool.committed_bytes t.pool));
  append_record t (Sbt_attest.Record.Ingress { ts = now_us t; uarray = U.id ua; stream; seq });
  ({ win = -1; ref_ = mint_ref t ua; events }, stalled_ns)

(* The edge vouches, from inside the TEE, that a frame was lost to a
   benign fault: the signed Gap record is what lets the verifier tell
   degradation from tampering. *)
let do_declare_gap t ~stream ~seq ~events ~windows ~reason =
  Sbt_obs.Metrics.incr t.m_gaps;
  append_record t
    (Sbt_attest.Record.Gap { ts = now_us t; stream; seq; events; windows; reason });
  Rs_outputs []

let do_ingest_watermark t ~value =
  (* Watermark ids come from the allocator's id sequence so all audit
     identifiers stay near-monotonic (better delta compression, 7). *)
  if value > t.last_wm then t.last_wm <- value;
  let id = Alloc.reserve_id t.alloc in
  append_record t (Sbt_attest.Record.Ingress_watermark { ts = now_us t; id; value });
  Rs_watermark { audit_id = id; value }

(* --- primitive dispatch ------------------------------------------------ *)

let as_one = function [ x ] -> x | _ -> raise (Rejected "primitive expects one input")
let as_two = function [ a; b ] -> (a, b) | _ -> raise (Rejected "primitive expects two inputs")

let scalar_i64 v =
  let lo = Int64.to_int32 v in
  let hi = Int64.to_int32 (Int64.shift_right_logical v 32) in
  [| lo; hi |]

(* How the TEE reads a per-record op's parameters, with the defaults a
   plain invoke applies.  Each step of a chain is read the same way, so a
   chain step and a length-1 invoke of the same (op, params) compute the
   same rows.  No other op may join a chain. *)
let per_record_step op params =
  let find f default = Option.value ~default (find_param params f) in
  let lo = find (function P_lo v -> Some v | _ -> None) in
  match op with
  | P.Filter_band ->
      let hi = find (function P_hi v -> Some v | _ -> None) Int32.max_int in
      F.F_filter_band { field = value_field params 1; lo = lo Int32.min_int; hi }
  | P.Select -> F.F_select { field = value_field params 0; value = lo 0l }
  | P.Project -> (
      match find_param params (function P_fields f -> Some f | _ -> None) with
      | Some fields -> F.F_project { fields }
      | None -> raise (Rejected "project: missing fields"))
  | P.Shift_key ->
      let shift = find (function P_shift s -> Some s | _ -> None) 8 in
      F.F_shift_key { field = key_field params 0; shift }
  | op -> raise (Rejected (Printf.sprintf "invoke: %s cannot join a chain" (P.name op)))

(* One trusted entry runs a chain of (op, params) steps.  A length-1
   chain is a plain invoke of any primitive and emits one Execution record
   (Windowing records for Segment).  A longer chain must be all
   per-record ops over one input: it runs as one kernel ({!F.run}) and
   emits one composite Fused record.  The chain hash is computed here,
   in-TEE, so the normal world cannot later present a different
   composition as the one that ran. *)
let do_invoke (t : t) ~chain ~inputs ~trigger ~hints ~retire_inputs =
  t.invocations <- t.invocations + 1;
  Sbt_obs.Metrics.incr t.m_invocations;
  List.iter (guard_ref t) inputs;
  let uas = List.map (Opaque.resolve t.refs) inputs in
  let producer =
    match chain with (op, _) :: _ -> P.to_id op | [] -> raise (Rejected "invoke: empty chain")
  in
  let hint_for i =
    match hints with [] -> None | [ h ] -> Some h | l -> List.nth_opt l i
  in
  let mk ?(i = 0) ~width ~capacity () =
    alloc_out t ?hint:(hint_for i) ~producer ~width ~capacity ()
  in
  (* One primitive: (window, array) pairs, window -1 when not
     window-scoped. *)
  let run_op op params : (int * U.t) list =
    let key ins = in_width ins (key_field params 0) in
    let value ins = in_width ins (value_field params 1) in
    match op with
    | P.Sort ->
        let src = as_one uas in
        let kf = key uas in
        let vf = find_param params (function P_value_field v -> Some (in_width uas v) | _ -> None) in
        let dst = mk ~width:(U.width src) ~capacity:(U.length src) () in
        timed t `Compute (fun () ->
            match vf with
            | Some vf ->
                (* Secondary order: stable radix by value, then by key. *)
                Sbt_prim.Sort.sort Sbt_prim.Sort.Radix ~src ~dst ~key_field:vf;
                Sbt_prim.Sort.sort_in_place Sbt_prim.Sort.Radix dst ~key_field:kf
            | None -> Sbt_prim.Sort.sort t.cfg.sort_algorithm ~src ~dst ~key_field:kf);
        [ (-1, dst) ]
    | P.Merge ->
        let a, b = as_two uas in
        let kf = key uas and width = one_width "merge" uas in
        let dst = mk ~width ~capacity:(U.length a + U.length b) () in
        timed t `Compute (fun () -> Sbt_prim.Merge.merge2 ~a ~b ~dst ~key_field:kf);
        [ (-1, dst) ]
    | P.Kway_merge ->
        if List.length uas > Sbt_prim.Merge.max_inputs then raise (Rejected "kway: too many inputs");
        let kf = key uas and width = one_width "kway" uas in
        let total = List.fold_left (fun acc ua -> acc + U.length ua) 0 uas in
        let dst = mk ~width ~capacity:total () in
        timed t `Compute (fun () -> Sbt_prim.Merge.kway ~inputs:uas ~dst ~key_field:kf);
        [ (-1, dst) ]
    | P.Segment -> (
        let src = as_one uas in
        let tf = find_param params (function P_ts_field f -> Some f | _ -> None) in
        let tf = in_width uas (Option.value ~default:2 tf) in
        match find_param params (function P_session_gap g -> Some g | _ -> None) with
        | Some gap ->
            (* Gap-based session windowing.  Assignment is global, stateful
               and in-order: the enclave remembers the last event time
               across batches, opens a new session after [gap] ticks of
               silence, and records each session's end so egress can hold a
               session open until the watermark clears end + gap. *)
            if gap <= 0 then raise (Rejected "segment: session gap must be positive");
            t.sess_gap <- gap;
            let n = U.length src in
            let w = U.width src in
            let ids = Array.make (max n 1) 0 in
            timed t `Compute (fun () ->
                for i = 0 to n - 1 do
                  let ts = Int32.to_int (U.get_field src i tf) in
                  if ts < t.sess_last_ts then
                    raise (Rejected "segment: session windows need in-order event times");
                  if t.sess_next_id = 0 || ts - t.sess_last_ts > gap then
                    t.sess_next_id <- t.sess_next_id + 1;
                  let sid = t.sess_next_id - 1 in
                  ids.(i) <- sid;
                  t.sess_last_ts <- ts;
                  Hashtbl.replace t.sess_ends sid ts
                done);
            (* Distinct session ids in first-appearance order (ids are
               non-decreasing, so this is also ascending id order). *)
            let order = ref [] in
            Array.iteri
              (fun i sid ->
                if i < n then
                  match !order with s :: _ when s = sid -> () | _ -> order := sid :: !order)
              ids;
            let sids = List.rev !order in
            let count sid =
              let c = ref 0 in
              for i = 0 to n - 1 do
                if ids.(i) = sid then incr c
              done;
              !c
            in
            let dsts =
              List.mapi (fun i sid -> (sid, mk ~i ~width:w ~capacity:(count sid) ())) sids
            in
            timed t `Compute (fun () ->
                let row = Array.make w 0l in
                for i = 0 to n - 1 do
                  for f = 0 to w - 1 do
                    row.(f) <- U.get_field src i f
                  done;
                  U.append (List.assoc ids.(i) dsts) row
                done);
            dsts
        | None ->
            let ws =
              match find_param params (function P_window_size w -> Some w | _ -> None) with
              | Some w -> w
              | None -> raise (Rejected "segment: missing window size")
            in
            let slide =
              Option.value ~default:ws (find_param params (function P_slide v -> Some v | _ -> None))
            in
            let counts =
              timed t `Compute (fun () ->
                  Sbt_prim.Segment.count_per_window ~src ~ts_field:tf ~window_size:ws ~slide ())
            in
            let dsts =
              List.mapi
                (fun i (win, count) -> (win, mk ~i ~width:(U.width src) ~capacity:count ()))
                counts
            in
            timed t `Compute (fun () ->
                Sbt_prim.Segment.segment ~src ~ts_field:tf ~window_size:ws ~slide
                  ~dst_for_window:(fun w -> List.assoc w dsts)
                  ());
            dsts)
    | P.Sum_cnt ->
        let src = as_one uas in
        let vf = value uas in
        let s, n = timed t `Compute (fun () -> Sbt_prim.Agg.sum_count src ~field:vf) in
        let dst = mk ~width:2 ~capacity:1 () in
        U.append dst [| Int64.to_int32 s; Int32.of_int n |];
        [ (-1, dst) ]
    | P.Top_k ->
        let src = as_one uas in
        let vf = value uas in
        let k =
          Option.value ~default:10 (find_param params (function P_k k -> Some k | _ -> None))
        in
        let dst = mk ~width:(U.width src) ~capacity:(min k (U.length src)) () in
        timed t `Compute (fun () -> Sbt_prim.Misc.top_k_records ~src ~dst ~field:vf ~k);
        [ (-1, dst) ]
    | P.Concat ->
        let width = one_width "concat" uas in
        let total = List.fold_left (fun acc ua -> acc + U.length ua) 0 uas in
        let dst = mk ~width ~capacity:total () in
        timed t `Compute (fun () -> Sbt_prim.Misc.concat ~inputs:uas ~dst);
        [ (-1, dst) ]
    | P.Join ->
        let left, right = as_two uas in
        let kf = key uas and vf = value uas in
        let runs = timed t `Compute (fun () -> Sbt_prim.Join.runs ~left ~right ~key_field:kf) in
        let dst = mk ~width:3 ~capacity:(Sbt_prim.Join.size runs) () in
        timed t `Compute (fun () -> Sbt_prim.Join.fill runs ~dst ~value_field:vf);
        [ (-1, dst) ]
    | P.Count ->
        let src = as_one uas in
        let dst = mk ~width:1 ~capacity:1 () in
        U.append dst [| Int32.of_int (Sbt_prim.Agg.count src) |];
        [ (-1, dst) ]
    | P.Sum ->
        (* WinSum consumes all of a window's segments directly. *)
        let vf = value uas in
        let total =
          timed t `Compute (fun () ->
              List.fold_left (fun acc ua -> Int64.add acc (Sbt_prim.Agg.sum ua ~field:vf)) 0L uas)
        in
        let dst = mk ~width:2 ~capacity:1 () in
        U.append dst (scalar_i64 total);
        [ (-1, dst) ]
    | P.Unique ->
        let src = as_one uas in
        let kf = key uas in
        let groups = timed t `Compute (fun () -> Sbt_prim.Keyed.group_count ~src ~key_field:kf) in
        let dst = mk ~width:2 ~capacity:groups () in
        timed t `Compute (fun () -> Sbt_prim.Keyed.distinct_keys ~src ~dst ~key_field:kf);
        [ (-1, dst) ]
    | P.Median ->
        let src = as_one uas in
        let vf = value uas in
        let m = timed t `Compute (fun () -> Sbt_prim.Agg.median src ~field:vf) in
        let dst = mk ~width:1 ~capacity:1 () in
        U.append dst [| Option.value ~default:0l m |];
        [ (-1, dst) ]
    | P.Min_max ->
        let src = as_one uas in
        let vf = value uas in
        let mm = timed t `Compute (fun () -> Sbt_prim.Agg.min_max src ~field:vf) in
        let dst = mk ~width:2 ~capacity:1 () in
        let lo, hi = Option.value ~default:(0l, 0l) mm in
        U.append dst [| lo; hi |];
        [ (-1, dst) ]
    | P.Average ->
        let src = as_one uas in
        let vf = value uas in
        let avg =
          timed t `Compute (fun () ->
              let s, n = Sbt_prim.Agg.sum_count src ~field:vf in
              if n = 0 then 0L else Int64.div s (Int64.of_int n))
        in
        let dst = mk ~width:1 ~capacity:1 () in
        U.append dst [| Int64.to_int32 avg |];
        [ (-1, dst) ]
    | P.Sum_per_key | P.Count_per_key | P.Avg_per_key | P.Median_per_key ->
        let src = as_one uas in
        let kf = key uas in
        (* Count_per_key reads no value field. *)
        let vf = if op = P.Count_per_key then 0 else value uas in
        let groups = timed t `Compute (fun () -> Sbt_prim.Keyed.group_count ~src ~key_field:kf) in
        let dst = mk ~width:2 ~capacity:groups () in
        timed t `Compute (fun () ->
            match op with
            | P.Sum_per_key -> Sbt_prim.Keyed.sum_per_key ~src ~dst ~key_field:kf ~value_field:vf
            | P.Count_per_key -> Sbt_prim.Keyed.count_per_key ~src ~dst ~key_field:kf
            | P.Avg_per_key -> Sbt_prim.Keyed.avg_per_key ~src ~dst ~key_field:kf ~value_field:vf
            | P.Median_per_key ->
                Sbt_prim.Keyed.median_per_key ~src ~dst ~key_field:kf ~value_field:vf
            | _ -> assert false);
        [ (-1, dst) ]
    | P.Top_k_per_key ->
        let src = as_one uas in
        let kf = key uas and vf = value uas in
        let k =
          Option.value ~default:10 (find_param params (function P_k k -> Some k | _ -> None))
        in
        let groups = timed t `Compute (fun () -> Sbt_prim.Keyed.group_count ~src ~key_field:kf) in
        let dst = mk ~width:2 ~capacity:(groups * k) () in
        timed t `Compute (fun () ->
            Sbt_prim.Keyed.topk_per_key ~src ~dst ~key_field:kf ~value_field:vf ~k);
        [ (-1, dst) ]
    | P.Filter_band | P.Select | P.Project | P.Shift_key ->
        let src, step =
          match (uas, per_record_step op params) with
          | [ src ], step -> (src, step)
          | [ src; th ], F.F_filter_band { field; _ } when U.width th = 1 || U.width th = 2 ->
              (* Runtime threshold (e.g. the window's global average):
                 strictly-above-threshold band. *)
              let lo = Int32.add (U.get_field th 0 0) 1l in
              (src, F.F_filter_band { field; lo; hi = Int32.max_int })
          | _, F.F_filter_band _ -> raise (Rejected "filter: expects data [+ threshold] inputs")
          | _ -> raise (Rejected "primitive expects one input")
        in
        if F.width_after (U.width src) [ step ] = None then raise (Rejected "invoke: bad step");
        let dst =
          match step with
          | F.F_filter_band { field; lo; hi } ->
              let n =
                timed t `Compute (fun () -> Sbt_prim.Filter.count_in_band ~src ~field ~lo ~hi)
              in
              let dst = mk ~width:(U.width src) ~capacity:n () in
              timed t `Compute (fun () -> Sbt_prim.Filter.filter_band ~src ~dst ~field ~lo ~hi);
              dst
          | F.F_select { field; value } ->
              let n =
                timed t `Compute (fun () ->
                    Sbt_prim.Filter.count_in_band ~src ~field ~lo:value ~hi:value)
              in
              let dst = mk ~width:(U.width src) ~capacity:n () in
              timed t `Compute (fun () -> Sbt_prim.Filter.select_eq ~src ~dst ~field ~value);
              dst
          | F.F_project { fields } ->
              let dst = mk ~width:(Array.length fields) ~capacity:(U.length src) () in
              timed t `Compute (fun () -> Sbt_prim.Misc.project ~src ~dst ~fields);
              dst
          | F.F_shift_key { field; shift } ->
              let dst = mk ~width:(U.width src) ~capacity:(U.length src) () in
              timed t `Compute (fun () -> Sbt_prim.Misc.shift_key ~src ~dst ~field ~shift);
              dst
        in
        [ (-1, dst) ]
  in
  (* A chain runs as one {!F.run} kernel.  It allocates the output once,
     after its count pass; [mk] times that as Mem from inside the Compute
     span, so it is taken back out of Compute to count once. *)
  let run_chain steps =
    let src = as_one uas in
    let w = U.width src in
    let dw =
      match F.width_after w steps with
      | Some dw -> dw
      | None -> raise (Rejected "invoke: chain invalid for input width")
    in
    let mem_before = t.mem_ns in
    let dst =
      timed t `Compute (fun () ->
          F.run ~steps ~src ~alloc:(fun n -> mk ~width:dw ~capacity:n ()))
    in
    t.compute_ns <- t.compute_ns -. (t.mem_ns -. mem_before);
    [ (-1, dst) ]
  in
  let kind, outputs =
    match chain with
    | [ (op, params) ] -> (`Op op, run_op op params)
    | _ ->
        let steps = List.map (fun (op, params) -> per_record_step op params) chain in
        (`Chain steps, run_chain steps)
  in
  List.iter (fun (_, ua) -> produce t ua) outputs;
  (* Audit before retiring. *)
  let ts = now_us t in
  let in_ids = List.map U.id uas @ Option.to_list trigger in
  let out_ids = List.map (fun (_, ua) -> U.id ua) outputs in
  let audit_hints =
    List.concat
      (List.mapi
         (fun i (_, ua) ->
           match hint_for i with
           | Some h -> [ encode_hint_for_audit t h (U.id ua) ]
           | None -> [])
         outputs)
  in
  (match kind with
  | `Op P.Segment ->
      let batch_id = U.id (List.hd uas) in
      List.iter
        (fun (win, ua) ->
          append_record t
            (Sbt_attest.Record.Windowing
               { ts; data_in = batch_id; win_no = win; data_out = U.id ua }))
        outputs
  | `Op op ->
      append_record t
        (Sbt_attest.Record.Execution
           { ts; op = P.to_id op; inputs = in_ids; outputs = out_ids; hints = audit_hints })
  | `Chain steps ->
      let ops = List.map (fun s -> P.to_id (F.step_op s)) steps in
      let params = F.encode_steps steps in
      let last_ops, last_params, _ = t.last_chain in
      if (last_ops, last_params) <> (ops, params) then
        t.last_chain <-
          (ops, params, timed t `Crypto (fun () -> Sbt_attest.Record.chain_hash ~ops ~params));
      let _, _, chain = t.last_chain in
      append_record t
        (Sbt_attest.Record.Fused
           { ts; ops; params; chain; inputs = in_ids; outputs = out_ids; hints = audit_hints }));
  let out_refs =
    List.map (fun (win, ua) -> { win; ref_ = mint_ref t ua; events = U.length ua }) outputs
  in
  if retire_inputs then List.iter (retire_ref t) inputs;
  out_refs

let chain_name = function [ (op, _) ] -> P.name op | _ -> "fused"

(* One world switch per batch: ingest the frame and, given a windowing
   step, run Segment on it and then the batch plan on every segment whose
   window is still open.  The records are the ones the three separate
   calls would append, in per-batch order: Ingress, the Windowing
   records, then one record per plan step per open segment.  Segments of
   windows below [first_open] come back unstaged, for the late policy. *)
let do_ingest_batch t ~payload ~encrypted ~stream ~seq ~mac ~windowing =
  let batch, stalled_ns = do_ingest_events t ~payload ~encrypted ~stream ~seq ~mac in
  let step hints (o : output) chain =
    traced_prim t (chain_name chain) (fun () ->
        do_invoke t ~chain ~inputs:[ o.ref_ ] ~trigger:None ~hints ~retire_inputs:true)
  in
  let stage w (o : output) chain =
    match step (Option.value ~default:[] (List.assoc_opt o.win w.stage_hints)) o chain with
    | [ out ] -> { out with win = o.win }
    | _ -> raise (Rejected "windowing: a batch stage must have one output")
  in
  let staged w o = if o.win < w.first_open then o else List.fold_left (stage w) o w.plan in
  let segments w = List.map (staged w) (step [] batch [ (P.Segment, w.segment) ]) in
  Rs_ingested { outs = Option.fold ~none:[ batch ] ~some:segments windowing; stalled_ns }

let egress_nonce window = Int64.logor 0x4547000000000000L (Int64.of_int window)

(* Corrections seal under their own nonce domain ("CT" vs the egress
   "EG"), keyed by (window, generation): a superseded result and its
   correction can never be confused or replayed for one another, and the
   cloud-side merge re-seals the winning generation under the canonical
   egress nonce so corrected output is byte-compatible with an in-order
   run. *)
let correction_nonce ~window ~gen =
  Int64.logor 0x4354000000000000L (Int64.of_int ((window * 256) + gen))

let seal_out t ~input ~window ~nonce ~mk_record =
  guard_ref t input;
  let ua = Opaque.resolve t.refs input in
  let events = U.length ua and width = U.width ua in
  let cipher =
    timed t `Crypto (fun () ->
        let payload = Bytes.create (events * width * 4) in
        let buf = U.raw ua in
        for i = 0 to (events * width) - 1 do
          Bytes.set_int32_le payload (4 * i) (Bigarray.Array1.get buf i)
        done;
        match t.cfg.version with
        | Insecure -> payload
        | Full | Clear_ingress | Io_via_os ->
            let ctr = Sbt_crypto.Ctr.create ~key:t.cfg.egress_key ~nonce in
            Sbt_crypto.Ctr.xcrypt ctr ~pos:0L payload 0 (Bytes.length payload);
            payload)
  in
  let tag =
    match t.cfg.version with
    | Insecure -> Bytes.create 0
    | Full | Clear_ingress | Io_via_os ->
        timed t `Crypto (fun () -> Sbt_crypto.Hmac.mac ~key:t.cfg.egress_key cipher)
  in
  append_record t (mk_record ~ts:(now_us t) ~uarray:(U.id ua));
  retire_ref t input;
  (* Audit records are flushed upon externalizing any result (paper §7). *)
  flush_log t;
  Rs_egress { window; cipher; tag; events; width }

let do_egress t ~input ~window =
  (* A session window may only seal once the watermark clears its end
     plus the gap — the in-TEE half of session close (the control plane
     schedules the close; the enclave refuses a premature one).  Fixed
     windows never populate [sess_ends], so this is inert by default. *)
  (match Hashtbl.find_opt t.sess_ends window with
  | Some end_ts when t.last_wm < end_ts + t.sess_gap ->
      raise
        (Rejected
           (Printf.sprintf "egress: session %d still open (last event %d, gap %d, watermark %d)"
              window end_ts t.sess_gap t.last_wm))
  | _ -> ());
  seal_out t ~input ~window ~nonce:(egress_nonce window) ~mk_record:(fun ~ts ~uarray ->
      Sbt_attest.Record.Egress { ts; uarray; win_no = window })

(* Drop+declare: the late batch dies inside the TEE, but its death is a
   signed audit fact (window, events) rather than silence — the verifier
   downgrades the would-be violation to declared degradation iff the
   quoted policy is drop+declare. *)
let do_late_drop t ~input ~window =
  guard_ref t input;
  let ua = Opaque.resolve t.refs input in
  let events = U.length ua in
  append_record t
    (Sbt_attest.Record.Late_drop { ts = now_us t; uarray = U.id ua; win_no = window; events });
  retire_ref t input;
  Rs_outputs []

let do_egress_correction t ~input ~window ~gen =
  if gen <= 0 || gen > 255 then raise (Rejected "correction: generation out of range");
  seal_out t ~input ~window
    ~nonce:(correction_nonce ~window ~gen)
    ~mk_record:(fun ~ts ~uarray -> Sbt_attest.Record.Correction { ts; uarray; win_no = window; gen })

(* --- certified UDFs (paper 4.2) ---------------------------------------- *)

let do_install_udf t ~udf ~cert =
  (* The trusted party is the cloud consumer; its key doubles as the UDF
     certification key.  Anything with a bad certificate never runs. *)
  let cert = Udf.certificate_of_bytes cert in
  if not (Udf.verify ~key:t.cfg.egress_key udf cert) then
    raise (Rejected "udf: certificate verification failed");
  Hashtbl.replace t.udfs (udf.Udf.name, udf.Udf.version) udf;
  Rs_outputs []

let do_invoke_udf t ~name ~version ~inputs ~trigger ~value_field ~hints ~retire_inputs
    ~state_output =
  let udf =
    match Hashtbl.find_opt t.udfs (name, version) with
    | Some u -> u
    | None -> raise (Rejected (Printf.sprintf "udf: %s v%d not installed" name version))
  in
  t.invocations <- t.invocations + 1;
  Sbt_obs.Metrics.incr t.m_invocations;
  List.iter (guard_ref t) inputs;
  let src = as_one (List.map (Opaque.resolve t.refs) inputs) in
  let w = U.width src in
  if value_field < 0 || value_field >= w then raise (Rejected "udf: bad value field");
  let hint = match hints with h :: _ -> Some h | [] -> None in
  let scope = if state_output then U.State else U.Streaming in
  let dst =
    match udf.Udf.body with
    | Udf.Map_value map_fn ->
        let dst =
          alloc_out t ?hint ~scope ~producer:P.udf_id ~width:w ~capacity:(U.length src) ()
        in
        timed t `Compute (fun () ->
            let n = U.length src in
            let sbuf = U.raw src in
            let first = U.reserve dst n in
            let dbuf = U.raw dst in
            for r = 0 to n - 1 do
              for f = 0 to w - 1 do
                let v = Bigarray.Array1.unsafe_get sbuf ((r * w) + f) in
                Bigarray.Array1.unsafe_set dbuf (((first + r) * w) + f)
                  (if f = value_field then map_fn v else v)
              done
            done);
        dst
    | Udf.Predicate p ->
        let n =
          timed t `Compute (fun () ->
              let n = U.length src in
              let sbuf = U.raw src in
              let c = ref 0 in
              for r = 0 to n - 1 do
                if p (Bigarray.Array1.unsafe_get sbuf ((r * w) + value_field)) then incr c
              done;
              !c)
        in
        let dst = alloc_out t ?hint ~scope ~producer:P.udf_id ~width:w ~capacity:n () in
        timed t `Compute (fun () ->
            let total = U.length src in
            let sbuf = U.raw src in
            for r = 0 to total - 1 do
              if p (Bigarray.Array1.unsafe_get sbuf ((r * w) + value_field)) then begin
                let at = U.reserve dst 1 in
                let dbuf = U.raw dst in
                for f = 0 to w - 1 do
                  Bigarray.Array1.unsafe_set dbuf ((at * w) + f)
                    (Bigarray.Array1.unsafe_get sbuf ((r * w) + f))
                done
              end
            done);
        dst
    | Udf.Combine2 combine ->
        (* (key, a, b) -> (key, combine a b): the stateful per-key update
           shape (e.g. EWMA over the previous prediction and the current
           window's average). *)
        if w <> 3 then raise (Rejected "udf: Combine2 expects width-3 (key, a, b) input");
        let n = U.length src in
        let dst = alloc_out t ?hint ~scope ~producer:P.udf_id ~width:2 ~capacity:n () in
        timed t `Compute (fun () ->
            let sbuf = U.raw src in
            let first = U.reserve dst n in
            let dbuf = U.raw dst in
            for r = 0 to n - 1 do
              Bigarray.Array1.unsafe_set dbuf ((first + r) * 2)
                (Bigarray.Array1.unsafe_get sbuf (r * 3));
              Bigarray.Array1.unsafe_set dbuf (((first + r) * 2) + 1)
                (combine
                   (Bigarray.Array1.unsafe_get sbuf ((r * 3) + 1))
                   (Bigarray.Array1.unsafe_get sbuf ((r * 3) + 2)))
            done);
        dst
  in
  produce t dst;
  let in_ids = List.map (fun r -> U.id (Opaque.resolve t.refs r)) inputs @ Option.to_list trigger in
  let audit_hints =
    match hint with Some h -> [ encode_hint_for_audit t h (U.id dst) ] | None -> []
  in
  append_record t
    (Sbt_attest.Record.Execution
       { ts = now_us t; op = P.udf_id; inputs = in_ids; outputs = [ U.id dst ]; hints = audit_hints });
  let out = { win = -1; ref_ = mint_ref t dst; events = U.length dst } in
  if retire_inputs then List.iter (retire_ref t) inputs;
  Rs_outputs [ out ]

(* Explicit retirement: the only way a State-scope uArray dies (the data
   plane never retires state behind the control plane's back, but the
   control plane replaces state each window and must free the old one). *)
let do_retire t ~input =
  guard_ref t input;
  let ua = Opaque.resolve t.refs input in
  timed t `Mem (fun () ->
      Alloc.retire t.alloc ua;
      drop_ref t input);
  Rs_outputs []

(* --- checkpoint sealing ------------------------------------------------

   The Checkpoint trusted primitive serializes everything volatile the
   data plane would need to continue after a reboot — PRNG limbs (so
   opaque references and any future draws continue the exact sequence),
   the allocator's id counter, the audit-log cursor, ingest/ingest-width
   counters, and every live uArray with its contents and its opaque
   reference — plus an opaque control-plane section the runtime hands
   in.  The whole state leaves the TEE only through Seal (AES-CTR +
   HMAC under device-derived keys); a Checkpoint audit record is
   appended and the log flushed *first*, so the sealed cursor is clean
   and the checkpoint's own sequence number is attested in the signed
   log the cloud already holds. *)

module C = Sbt_recovery.Codec

let state_version = 2

let scope_tag = function U.Streaming -> 0 | U.State -> 1 | U.Temporary -> 2

let scope_of_tag = function
  | 0 -> U.Streaming
  | 1 -> U.State
  | 2 -> U.Temporary
  | tag -> invalid_arg (Printf.sprintf "Dataplane.restore: bad scope tag %d" tag)

let serialize_state t ~control =
  let w = C.writer () in
  C.u8 w state_version;
  let s0, s1, s2, s3 = Sbt_crypto.Rng.state t.rng in
  C.i64 w s0;
  C.i64 w s1;
  C.i64 w s2;
  C.i64 w s3;
  C.int_ w t.next_ckpt_seq;
  C.int_ w (Sbt_attest.Log.seq t.log);
  C.int_ w (Sbt_attest.Log.records_produced t.log);
  C.int_ w t.ingest_width;
  C.int_ w t.invocations;
  C.int_ w t.events_ingested;
  C.int_ w t.bytes_ingested;
  C.int_ w t.backpressure_stalls;
  C.int_ w t.sheds;
  C.int_ w t.consecutive_sheds;
  C.f64 w t.compute_ns;
  C.f64 w t.mem_ns;
  C.f64 w t.crypto_ns;
  C.f64 w t.ingest_ns;
  C.list_ w
    (fun w (ref_, ua) ->
      C.i64 w ref_;
      C.int_ w (U.id ua);
      C.int_ w (U.width ua);
      C.int_ w (U.capacity ua);
      C.u8 w (scope_tag (U.scope ua));
      C.u8 w (match U.state ua with U.Open -> 0 | U.Produced -> 1 | U.Retired -> 2);
      C.int_ w (U.length ua);
      let n = U.length ua * U.width ua in
      let buf = U.raw ua in
      C.u32 w n;
      for i = 0 to n - 1 do
        C.i32 w (Bigarray.Array1.get buf i)
      done)
    (Opaque.sorted_bindings t.refs);
  C.int_ w (Alloc.next_uarray_id t.alloc);
  C.bytes_ w control;
  C.contents w

let do_checkpoint t ~control ~watermark =
  let seq = t.next_ckpt_seq in
  t.next_ckpt_seq <- seq + 1;
  append_record t (Sbt_attest.Record.Checkpoint { ts = now_us t; seq; watermark });
  flush_log t;
  let state = serialize_state t ~control in
  let blob =
    timed t `Crypto (fun () ->
        Sbt_recovery.Seal.seal ~device_key:t.cfg.egress_key ~seq state)
  in
  Rs_checkpoint { blob; seq }

let dispatch t = function
  | R_ingest_events { payload; encrypted; stream; seq; mac; windowing } ->
      do_ingest_batch t ~payload ~encrypted ~stream ~seq ~mac ~windowing
  | R_ingest_watermark { value } -> do_ingest_watermark t ~value
  | R_declare_gap { stream; seq; events; windows; reason } ->
      do_declare_gap t ~stream ~seq ~events ~windows ~reason
  | R_invoke { chain; inputs; trigger; hints; retire_inputs } ->
      traced_prim t (chain_name chain) (fun () ->
          Rs_outputs (do_invoke t ~chain ~inputs ~trigger ~hints ~retire_inputs))
  | R_egress { input; window } -> traced_prim t "seal" (fun () -> do_egress t ~input ~window)
  | R_late_drop { input; window } -> do_late_drop t ~input ~window
  | R_egress_correction { input; window; gen } ->
      traced_prim t "seal" (fun () -> do_egress_correction t ~input ~window ~gen)
  | R_install_udf { udf; cert } -> do_install_udf t ~udf ~cert
  | R_invoke_udf { name; version; inputs; trigger; value_field; hints; retire_inputs; state_output } ->
      traced_prim t ("udf:" ^ name) (fun () ->
          do_invoke_udf t ~name ~version ~inputs ~trigger ~value_field ~hints ~retire_inputs
            ~state_output)
  | R_retire { input } -> do_retire t ~input
  | R_checkpoint { control; watermark } -> do_checkpoint t ~control ~watermark

let create cfg =
  let budget =
    match cfg.pool_budget_bytes with
    | Some b -> b
    | None -> Tz.Platform.secure_bytes cfg.platform
  in
  let pool = Pool.create ~budget_bytes:budget in
  let alloc = Alloc.create ~mode:cfg.alloc_mode ~pool () in
  let rng = Sbt_crypto.Rng.create ~seed:cfg.seed in
  let smc = Tz.Smc.create cfg.platform in
  let reg = Sbt_obs.Metrics.create () in
  let batch_bounds = [| 1.; 2.; 5.; 10.; 20.; 50.; 100.; 200.; 500.; 1000.; 2000.; 5000. |] in
  let t =
    {
      cfg;
      pool;
      alloc;
      refs = Opaque.create ~rng;
      log = Sbt_attest.Log.create ~key:cfg.egress_key ~flush_every:cfg.audit_flush_every;
      rng;
      smc;
      now_ns = 0.0;
      compute_ns = 0.0;
      mem_ns = 0.0;
      crypto_ns = 0.0;
      ingest_ns = 0.0;
      invocations = 0;
      events_ingested = 0;
      bytes_ingested = 0;
      backpressure_stalls = 0;
      sheds = 0;
      consecutive_sheds = 0;
      uploaded = [];
      next_ckpt_seq = 0;
      ingest_width = 3;
      sess_gap = 0;
      sess_last_ts = 0;
      sess_next_id = 0;
      sess_ends = Hashtbl.create 16;
      last_wm = -1;
      udfs = Hashtbl.create 8;
      last_chain = ([], Bytes.empty, Bytes.empty);
      reg;
      m_events = Sbt_obs.Metrics.counter reg "tee.events_ingested";
      m_bytes = Sbt_obs.Metrics.counter reg "tee.bytes_ingested";
      m_sheds = Sbt_obs.Metrics.counter reg "tee.sheds";
      m_stalls = Sbt_obs.Metrics.counter reg "tee.backpressure_stalls";
      m_invocations = Sbt_obs.Metrics.counter reg "tee.invocations";
      m_gaps = Sbt_obs.Metrics.counter reg "tee.gaps_declared";
      m_batch_events = Sbt_obs.Metrics.histogram ~bounds:batch_bounds reg "tee.batch_events";
      m_pool = Sbt_obs.Metrics.gauge reg "tee.pool_committed_bytes";
    }
  in
  (* The declared late-data policy is part of the attestation surface: any
     policy but Silent registers as a gauge in the quoted metrics
     snapshot, so the cloud verifier can hold the audit stream to it.
     Silent registers nothing — default quote bytes stay identical. *)
  if cfg.late_policy <> Silent then
    Sbt_obs.Metrics.set_gauge
      (Sbt_obs.Metrics.gauge reg "tee.late_policy")
      (float_of_int (late_policy_code cfg.late_policy));
  (* Observers go in before Init so a trace's "smc" span count equals the
     platform's switch-pair count exactly. *)
  (match cfg.tracer with
  | None -> ()
  | Some tracer ->
      let now_ns () = t.now_ns in
      Tz.Smc.set_observer smc ~tracer ~now_ns;
      Alloc.set_observer alloc ~tracer ~now_ns);
  Tz.Smc.register smc Tz.Smc.Init (fun _ -> Rr_unit);
  Tz.Smc.register smc Tz.Smc.Finalize (fun _ ->
      flush_log t;
      Rr_unit);
  Tz.Smc.register smc Tz.Smc.Debug (fun _ ->
      Rr_debug
        (Printf.sprintf "refs=%d committed=%dB groups=%d" (Opaque.live_count t.refs)
           (Pool.committed_bytes pool) (Alloc.live_groups alloc)));
  Tz.Smc.register smc Tz.Smc.Invoke (fun rpc ->
      match rpc with
      | Rpc_op req -> Rr_op (dispatch t req)
      | Rpc_init | Rpc_finalize | Rpc_debug -> raise (Rejected "wrong entry"));
  (* Transient SMC entry failures: the plan decides, per ingest frame
     identity, how many consecutive attempts the monitor refuses — so the
     schedule replays identically whatever order tasks run in. *)
  if not (Sbt_fault.Fault.is_none cfg.fault_plan) then begin
    let refused : (int * int, int) Hashtbl.t = Hashtbl.create 64 in
    Tz.Smc.set_fault_hook smc (fun entry rpc ->
        match (entry, rpc) with
        | Tz.Smc.Invoke, Rpc_op (R_ingest_events { stream; seq; _ }) ->
            let budget = Sbt_fault.Fault.smc_failures cfg.fault_plan ~stream ~seq in
            budget > 0
            &&
            let done_ = Option.value ~default:0 (Hashtbl.find_opt refused (stream, seq)) in
            done_ < budget
            && begin
                 Hashtbl.replace refused (stream, seq) (done_ + 1);
                 true
               end
        | _ -> false)
  end;
  (match cfg.version with
  | Insecure -> ()
  | Full | Clear_ingress | Io_via_os -> ignore (Tz.Smc.call smc Tz.Smc.Init Rpc_init));
  t

(* Boot-time recovery: build a fresh data plane (fresh SMC monitor, fresh
   pool — the old TEE memory is gone), unseal the checkpoint under the
   device key, and replay the serialized state into it.  Opaque refs are
   re-bound to their *original* 64-bit values without consuming PRNG
   draws, and the PRNG limbs themselves are restored, so every reference
   and nonce the recovered plane hands out matches what the uninterrupted
   run would have produced. *)

type restored = { rt : t; control : bytes; ckpt_seq : int; log_seq : int }

let restore cfg ~expect_seq blob =
  let seq, plain =
    Sbt_recovery.Seal.unseal ~device_key:cfg.egress_key ~expect_at_least:expect_seq blob
  in
  let r = C.reader plain in
  let v = C.get_u8 r in
  if v <> state_version then
    invalid_arg (Printf.sprintf "Dataplane.restore: state version %d (want %d)" v state_version);
  let t = create cfg in
  let s0 = C.get_i64 r in
  let s1 = C.get_i64 r in
  let s2 = C.get_i64 r in
  let s3 = C.get_i64 r in
  Sbt_crypto.Rng.set_state t.rng (s0, s1, s2, s3);
  t.next_ckpt_seq <- C.get_int r;
  let log_seq = C.get_int r in
  Sbt_attest.Log.restore_cursor t.log ~seq:log_seq ~records_produced:(C.get_int r);
  t.ingest_width <- C.get_int r;
  t.invocations <- C.get_int r;
  t.events_ingested <- C.get_int r;
  t.bytes_ingested <- C.get_int r;
  t.backpressure_stalls <- C.get_int r;
  t.sheds <- C.get_int r;
  t.consecutive_sheds <- C.get_int r;
  t.compute_ns <- C.get_f64 r;
  t.mem_ns <- C.get_f64 r;
  t.crypto_ns <- C.get_f64 r;
  t.ingest_ns <- C.get_f64 r;
  let arrays =
    C.get_list r (fun r ->
        let ref_ = C.get_i64 r in
        let id = C.get_int r in
        let width = C.get_int r in
        let capacity = C.get_int r in
        let scope = scope_of_tag (C.get_u8 r) in
        let state_tag = C.get_u8 r in
        let length = C.get_int r in
        let n = C.get_u32 r in
        if n <> length * width then invalid_arg "Dataplane.restore: field count mismatch";
        let fields = Array.init n (fun _ -> C.get_i32 r) in
        (ref_, id, width, capacity, scope, state_tag, length, fields))
  in
  List.iter
    (fun (ref_, id, width, capacity, scope, state_tag, length, fields) ->
      let ua = Alloc.alloc_restored t.alloc ~id ~scope ~width ~capacity () in
      if length > 0 then begin
        ignore (U.reserve ua length);
        let buf = U.raw ua in
        Array.iteri (fun i v -> Bigarray.Array1.set buf i v) fields
      end;
      (match state_tag with
      | 0 -> ()
      | 1 -> Alloc.produce t.alloc ua
      | 2 -> invalid_arg "Dataplane.restore: retired array in checkpoint"
      | n -> invalid_arg (Printf.sprintf "Dataplane.restore: bad state tag %d" n));
      Opaque.restore t.refs ~ref_ ua;
      match t.cfg.namespace with
      | Some ns -> Hashtbl.replace ns.ns_owners ref_ ns.ns_tenant
      | None -> ())
    arrays;
  Alloc.force_next_id t.alloc ~next:(C.get_int r);
  let control = C.get_bytes r in
  if not (C.at_end r) then invalid_arg "Dataplane.restore: trailing bytes";
  { rt = t; control; ckpt_seq = seq; log_seq }

let call t req =
  match t.cfg.version with
  | Insecure -> dispatch t req
  | Full | Clear_ingress | Io_via_os -> (
      match Tz.Smc.call t.smc Tz.Smc.Invoke (Rpc_op req) with
      | Rr_op resp -> resp
      | Rr_unit | Rr_debug _ -> raise (Rejected "unexpected response"))

let debug_dump t =
  match t.cfg.version with
  | Insecure -> "insecure: no TEE"
  | Full | Clear_ingress | Io_via_os -> (
      match Tz.Smc.call t.smc Tz.Smc.Debug Rpc_debug with
      | Rr_debug s -> s
      | Rr_unit | Rr_op _ -> raise (Rejected "unexpected response"))

let finalize t =
  match t.cfg.version with
  | Insecure -> flush_log t
  | Full | Clear_ingress | Io_via_os ->
      ignore (Tz.Smc.call t.smc Tz.Smc.Finalize Rpc_finalize)

let uploaded_batches t = List.rev t.uploaded

let audit_records_for_test t =
  flush_log t;
  List.concat_map
    (fun b -> Sbt_attest.Log.open_batch ~key:t.cfg.egress_key b)
    (uploaded_batches t)

let open_result ~egress_key (r : sealed_result) =
  if Bytes.length r.tag > 0 && not (Sbt_crypto.Hmac.verify ~key:egress_key ~tag:r.tag r.cipher)
  then invalid_arg "Dataplane.open_result: MAC verification failed";
  let payload =
    if Bytes.length r.tag = 0 then Bytes.copy r.cipher
    else begin
      let p = Bytes.copy r.cipher in
      let ctr = Sbt_crypto.Ctr.create ~key:egress_key ~nonce:(egress_nonce r.window) in
      Sbt_crypto.Ctr.xcrypt ctr ~pos:0L p 0 (Bytes.length p);
      p
    end
  in
  Array.init r.events (fun i ->
      Array.init r.width (fun f -> Bytes.get_int32_le payload (4 * ((i * r.width) + f))))

(* Cloud-side correction merge: authenticate the winning correction,
   open it under its (window, gen) nonce, and re-seal the plaintext
   under the canonical egress nonce — after the merge, corrected output
   is byte-identical to what an in-order run seals for the window.
   Identity on unauthenticated (Insecure) results, which are plaintext
   under either nonce. *)
let reseal_correction ~egress_key ~gen (r : sealed_result) =
  if Bytes.length r.tag = 0 then r
  else begin
    if not (Sbt_crypto.Hmac.verify ~key:egress_key ~tag:r.tag r.cipher) then
      invalid_arg "Dataplane.reseal_correction: MAC verification failed";
    let p = Bytes.copy r.cipher in
    let open_ctr =
      Sbt_crypto.Ctr.create ~key:egress_key ~nonce:(correction_nonce ~window:r.window ~gen)
    in
    Sbt_crypto.Ctr.xcrypt open_ctr ~pos:0L p 0 (Bytes.length p);
    let seal_ctr = Sbt_crypto.Ctr.create ~key:egress_key ~nonce:(egress_nonce r.window) in
    Sbt_crypto.Ctr.xcrypt seal_ctr ~pos:0L p 0 (Bytes.length p);
    let tag = Sbt_crypto.Hmac.mac ~key:egress_key p in
    { r with cipher = p; tag }
  end

let stats (t : t) =
  {
    compute_ns = t.compute_ns;
    mem_ns = t.mem_ns;
    crypto_ns = t.crypto_ns;
    ingest_ns = t.ingest_ns;
    switch_pairs = t.cfg.platform.Tz.Platform.switch_pairs;
    modeled_switch_ns = t.cfg.platform.Tz.Platform.modeled_switch_ns;
    modeled_copy_ns = t.cfg.platform.Tz.Platform.modeled_copy_ns;
    invocations = t.invocations;
    events_ingested = t.events_ingested;
    bytes_ingested = t.bytes_ingested;
    backpressure_stalls = t.backpressure_stalls;
    sheds = t.sheds;
    smc_busy_rejections = Tz.Smc.busy_rejections t.smc;
  }

let live_refs t = Opaque.live_count t.refs
let pool_committed_bytes t = Pool.committed_bytes t.pool
let pool_high_water_bytes t = Pool.high_water_bytes t.pool
let reset_high_water t = Pool.reset_high_water t.pool
let allocator t = t.alloc
let set_now_ns t ns = t.now_ns <- ns
let now_ns t = t.now_ns

let metrics_quote t ~nonce =
  let payload = Sbt_obs.Metrics.encode_snapshot t.reg in
  let measurement = Sbt_crypto.Sha256.digest payload in
  (payload, Sbt_attest.Quote.issue ~device_key:t.cfg.egress_key measurement ~nonce)

let set_ingest_width t w =
  if w <= 0 then invalid_arg "Dataplane.set_ingest_width: width must be positive";
  t.ingest_width <- w

let audit_records_produced t = Sbt_attest.Log.records_produced t.log
