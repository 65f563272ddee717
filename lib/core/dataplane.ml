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

type config = {
  version : version;
  platform : Tz.Platform.t;
  alloc_mode : Alloc.mode;
  ingress_key : bytes;
  egress_key : bytes;
  backpressure_threshold : float;
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
      ?platform ?(alloc_mode = Alloc.Hint_guided)
      ?(ingress_key = Bytes.of_string "sbt-ingress-k16!")
      ?(egress_key = Bytes.of_string "sbt-egress-key16") ?(backpressure_threshold = 0.90)
      ?(seed = 42L) ?(fault_plan = Sbt_fault.Fault.none) ?(late_policy = Silent) ?tracer () =
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
    {
      version;
      platform;
      alloc_mode;
      ingress_key;
      egress_key;
      backpressure_threshold;
      seed;
      fault_plan;
      late_policy;
      tracer;
      pool_budget_bytes = None;
      namespace = None;
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

type output = { win : int; ref_ : int64; events : int }
type sealed_result = { window : int; cipher : bytes; tag : bytes; events : int; width : int }
type refusal = Corrupt_ingress | Pool_pressure

type ingested =
  | Ingested of { outs : output list; stalled_ns : float }
  | Refused of { reason : refusal; stalled_ns : float }

type checkpoint = { blob : bytes; seq : int }

type _ request =
  | R_ingest_events : {
      payload : bytes; encrypted : bool; stream : int; seq : int; mac : bytes;
      windowing : windowing option;
    }
      -> ingested request
  | R_ingest_watermark : { value : int } -> int request
  | R_declare_gap : {
      stream : int;
      seq : int;
      events : int;
      windows : int list;
      reason : Sbt_attest.Record.gap_reason;
    }
      -> unit request
  | R_invoke : {
      chain : (P.t * param list) list;
      inputs : int64 list;
      trigger : int option;
      hints : hint list;
      retire_inputs : bool;
    }
      -> output list request
  | R_egress : { input : int64; window : int } -> sealed_result request
  | R_late_drop : { input : int64; window : int } -> unit request
  | R_egress_correction : { input : int64; window : int; gen : int } -> sealed_result request
  | R_install_udf : { udf : Udf.t; cert : bytes } -> unit request
  | R_invoke_udf : {
      name : string;
      version : int;
      inputs : int64 list;
      trigger : int option;
      value_field : int;
      hints : hint list;
      retire_inputs : bool;
      state_output : bool;
    }
      -> output request
  | R_retire : { input : int64 } -> unit request
  | R_checkpoint : { control : bytes; watermark : int } -> checkpoint request

exception Rejected of string

exception Cross_tenant_ref of { ref_ : int64; owner : int; tenant : int }
(* A reference minted for one tenant arrived at another tenant's
   dispatch.  Distinct from {!Opaque.Invalid_reference} (a fabricated or
   stale ref): the ref is live in the enclave, just not this tenant's —
   the namespace check fires before the per-tenant table lookup ever
   sees it. *)

(* The last chain the TEE parsed: a private copy of the request it came
   from (the normal world owns the request's arrays, and may change them
   between calls), its steps, and the ops, parameter blob and hash its
   Fused record carries. *)
type parsed_chain = {
  request : (P.t * param list) list;
  steps : F.step list;
  ops : int list; params : bytes; hash : bytes;
}

(* The secure clock and the host-time ledger: an all-float record, so
   charging a bucket stores a float in place instead of boxing one. *)
type ledger = {
  mutable vt : float; (* the secure clock, in virtual ns *)
  mutable compute : float; mutable mem : float; mutable crypto : float; mutable ingest : float;
}

type t = {
  cfg : config;
  ingress : Sbt_crypto.Aead.key; (* derived from the config's keys at creation *)
  egress : Sbt_crypto.Aead.key;
  pool : Pool.t;
  alloc : Alloc.t;
  refs : Opaque.t;
  log : Sbt_attest.Log.t;
  rng : Sbt_crypto.Rng.t;
  smc : Tz.Smc.t;
  smc_refused : (int * int, int) Hashtbl.t; (* injected busy refusals per frame *)
  ns : ledger;
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
  mutable last_chain : parsed_chain option;
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

let now_us t = int_of_float (t.ns.vt /. 1e3)

(* An Insecure run has no TEE and keeps no audit log. *)
let audited t = match t.cfg.version with Insecure -> false | Full | Clear_ingress | Io_via_os -> true

let append_record t r =
  if audited t then
    match Sbt_attest.Log.append t.log r with
    | Some batch -> t.uploaded <- batch :: t.uploaded
    | None -> ()

let flush_log t =
  if audited t then
    match Sbt_attest.Log.flush t.log with
    | Some batch -> t.uploaded <- batch :: t.uploaded
    | None -> ()

(* --- timing helpers: measured host nanoseconds per cost category ------ *)

(* [charge t bucket t0] adds the host ns since the clock reading [t0] to
   [bucket] and returns the new reading, so an adjacent span can start
   from it. *)
let[@inline] charge (t : t) bucket t0 =
  let t1 = Sbt_sim.Clock.now_ns () in
  let l = t.ns and dt = t1 -. t0 in
  (match bucket with
  | `Compute -> l.compute <- l.compute +. dt
  | `Mem -> l.mem <- l.mem +. dt
  | `Crypto -> l.crypto <- l.crypto +. dt
  | `Ingest -> l.ingest <- l.ingest +. dt);
  t1

let timed t bucket f =
  let t0 = Sbt_sim.Clock.now_ns () in
  let r = f () in
  ignore (charge t bucket t0);
  r

let measured_total (t : t) = t.ns.compute +. t.ns.mem +. t.ns.crypto +. t.ns.ingest

(* One "prim" span per primitive/udf/seal execution, at the TEE's virtual
   clock.  The duration is the measured-time delta with crypto charged at
   the cost model's crypto_scale, all scaled by host_scale — the same
   virtual quantity the DES charges — so at host_scale 0 even the trace
   bytes are deterministic. *)
let traced_prim t name f =
  match t.cfg.tracer with
  | None -> f ()
  | Some tr ->
      let ts = t.ns.vt and before = measured_total t and crypto_before = t.ns.crypto in
      let r = f () in
      let cost = t.cfg.platform.Tz.Platform.cost in
      let crypto_adjust =
        (t.ns.crypto -. crypto_before) *. (cost.Tz.Cost_model.crypto_scale -. 1.0)
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
  let t0 = Sbt_sim.Clock.now_ns () in
  let ua = Alloc.alloc t.alloc ~hint:(safe_hint t hint) ~scope ~producer ~width ~capacity () in
  ignore (charge t `Mem t0);
  ua

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

(* Drop [r] and retire [ua], the array it resolved to, untimed: the
   caller's Mem span covers it.  A reference named twice fails in
   [drop_ref] the second time, before its array is touched. *)
let retire t r ua =
  (* State uArrays outlive primitive executions; never retire them
     behind the control plane's back. *)
  match U.scope ua with
  | U.State -> ()
  | U.Streaming | U.Temporary ->
      drop_ref t r;
      Alloc.retire t.alloc ua

let retire_ref t r =
  guard_ref t r;
  let ua = Opaque.resolve t.refs r in
  timed t `Mem (fun () -> retire t r ua)

let find_param params f = List.find_map f params

let key_field params default =
  Option.value ~default (find_param params (function P_key_field k -> Some k | _ -> None))

let k_param params =
  Option.value ~default:10 (find_param params (function P_k k -> Some k | _ -> None))

let value_field params default =
  Option.value ~default (find_param params (function P_value_field v -> Some v | _ -> None))

(* The kernels read records unchecked, so the TEE checks every field
   parameter against the width of each input it indexes before any
   output is allocated. *)
let in_width uas f =
  if f < 0 || List.exists (fun ua -> f >= U.width ua) uas then
    raise (Rejected (Printf.sprintf "invoke: field %d outside the input records" f));
  f

let key_in params uas = in_width uas (key_field params 0)
let value_in params uas = in_width uas (value_field params 1)

(* Merges and Concat copy whole records into one output: their inputs
   must share one width. *)
let one_width what = function
  | [] -> raise (Rejected (what ^ ": no inputs"))
  | ua :: rest ->
      if List.exists (fun r -> U.width r <> U.width ua) rest then
        raise (Rejected (what ^ ": inputs of different widths"));
      U.width ua

(* --- ingestion -------------------------------------------------------- *)

(* Three adjacent spans: the allocation (Mem), the unpack (Ingest) and
   the seal (Mem), each starting where the last ended. *)
let unpack_payload t ~producer payload width =
  let events = Bytes.length payload / (4 * width) in
  let t0 = Sbt_sim.Clock.now_ns () in
  let ua =
    Alloc.alloc t.alloc ~hint:Alloc.Consumed_in_parallel ~scope:U.Streaming ~producer ~width
      ~capacity:events ()
  in
  let t1 = charge t `Mem t0 in
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
    Bigarray.Array1.unsafe_set buf (fields - 1) (Bytes.get_int32_le payload (4 * (fields - 1)));
  let t2 = charge t `Ingest t1 in
  Alloc.produce t.alloc ua;
  ignore (charge t `Mem t2);
  (ua, events)

(* Why the TEE turns a frame away before it is in, if it does: with the
   stall the source must take, and before any invocation is counted. *)
let refusal t ~payload ~encrypted ~stream ~seq ~mac =
  (* A frame that is not a whole number of records is corrupt, and so is
     an encrypted or tagged one whose tag does not verify: checked before
     anything else is spent on the batch, so damage anywhere in header or
     payload surfaces here. *)
  let events = Bytes.length payload / (4 * t.ingest_width) in
  let corrupt =
    Bytes.length payload <> 4 * t.ingest_width * events
    || (encrypted || Bytes.length mac > 0)
       && not
            (timed t `Crypto (fun () ->
                 Sbt_net.Frame.payload_mac_valid ~key:t.ingress ~stream ~seq ~events ~encrypted ~mac
                   payload))
  in
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
  if corrupt then Some (Corrupt_ingress, 0.0)
  else if
    forced_shed || quota_shed
    || Pool.available_pages t.pool < Pool.pages_for_bytes (Bytes.length payload)
  then begin
    t.sheds <- t.sheds + 1;
    Sbt_obs.Metrics.incr t.m_sheds;
    t.consecutive_sheds <- t.consecutive_sheds + 1;
    Some
      ( Pool_pressure,
        Float.min 16_000_000.0 (1_000_000.0 *. float_of_int (1 lsl min 4 t.consecutive_sheds)) )
  end
  else None

let do_ingest_events t ~payload ~encrypted ~stream ~seq =
  let platform = t.cfg.platform in
  (* Backpressure: above the threshold the source is stalled before this
     batch may enter (paper §4.2). *)
  let pressure =
    float_of_int (Pool.committed_bytes t.pool) /. float_of_int (Pool.budget_bytes t.pool)
  in
  let stalled_ns =
    if pressure > t.cfg.backpressure_threshold then begin
      t.backpressure_stalls <- t.backpressure_stalls + 1;
      Sbt_obs.Metrics.incr t.m_stalls;
      1_000_000.0 (* fixed 1 ms source stall *)
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
          let p = Bytes.copy payload in
          Sbt_crypto.Aead.xcrypt t.ingress ~nonce:(Int64.of_int stream)
            ~pos:(Int64.shift_left (Int64.of_int seq) 32) p 0 (Bytes.length p);
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
    (Sbt_attest.Record.Gap { ts = now_us t; stream; seq; events; windows; reason })

let do_ingest_watermark t ~value =
  (* Watermark ids come from the allocator's id sequence so all audit
     identifiers stay near-monotonic (better delta compression, 7). *)
  if value > t.last_wm then t.last_wm <- value;
  let id = Alloc.reserve_id t.alloc in
  append_record t (Sbt_attest.Record.Ingress_watermark { ts = now_us t; id; value });
  id

(* --- primitive dispatch ------------------------------------------------ *)

let as_one = function [ x ] -> x | _ -> raise (Rejected "primitive expects one input")
let as_two = function [ a; b ] -> (a, b) | _ -> raise (Rejected "primitive expects two inputs")

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

(* Requests compared by value: their arrays belong to the normal world. *)
let same_param a b =
  match (a, b) with
  | P_lo x, P_lo y | P_hi x, P_hi y -> Int32.equal x y
  | P_fields x, P_fields y -> Array.length x = Array.length y && Array.for_all2 Int.equal x y
  | P_key_field x, P_key_field y | P_value_field x, P_value_field y | P_ts_field x, P_ts_field y
  | P_window_size x, P_window_size y | P_slide x, P_slide y | P_k x, P_k y | P_shift x, P_shift y
  | P_session_gap x, P_session_gap y -> x = y
  | _ -> false

let same_chain = List.equal (fun (o, p) (o', p') -> o = o' && List.equal same_param p p')

(* A batch chain's steps, parsed, encoded and hashed in-TEE once while
   the requests repeat it.  The cache holds one chain: a plan with one
   fused chain derives it once, one with two chains (stages around a
   batch op) derives each per call.  The request is compared by value
   with the copy kept, so a request changed in place is parsed again; a
   chain that does not parse raises before anything is kept. *)
let parse_chain t chain =
  match t.last_chain with
  | Some c when same_chain c.request chain -> c
  | Some _ | None ->
      let copy = function P_fields f -> P_fields (Array.copy f) | p -> p in
      let request = List.map (fun (op, params) -> (op, List.map copy params)) chain in
      let steps = List.map (fun (op, params) -> per_record_step op params) request in
      let ops = List.map (fun s -> P.to_id (F.step_op s)) steps in
      let params = F.encode_steps steps in
      let hash = timed t `Crypto (fun () -> Sbt_attest.Record.chain_hash ~ops ~params) in
      let c = { request; steps; ops; params; hash } in
      t.last_chain <- Some c;
      c

(* The hint for a call's [i]th output: a single hint covers them all. *)
let hint_at hints i = match hints with [] -> None | [ h ] -> Some h | l -> List.nth_opt l i

(* A one-row output. *)
let one_row ~mk row =
  let dst = mk ?i:None ~width:(Array.length row) ~capacity:1 () in
  U.append dst row;
  [ (-1, dst) ]

(* One primitive over the resolved inputs [uas]: (window, array) pairs,
   window -1 when not window-scoped.  [mk ~i] allocates output [i]. *)
let run_op t uas ~(mk : ?i:int -> width:int -> capacity:int -> unit -> U.t) op params =
  match op with
  | P.Sort ->
      let src = as_one uas in
      let kf = key_in params uas in
      let vf = find_param params (function P_value_field v -> Some (in_width uas v) | _ -> None) in
      let dst = mk ~width:(U.width src) ~capacity:(U.length src) () in
      timed t `Compute (fun () ->
          match vf with
          | Some vf ->
              (* Secondary order: stable radix by value, then by key. *)
              Sbt_prim.Sort.sort ~src ~dst ~key_field:vf;
              Sbt_prim.Sort.sort_in_place dst ~key_field:kf
          | None -> Sbt_prim.Sort.sort ~src ~dst ~key_field:kf);
      [ (-1, dst) ]
  | P.Merge ->
      let a, b = as_two uas in
      let kf = key_in params uas and width = one_width "merge" uas in
      let dst = mk ~width ~capacity:(U.length a + U.length b) () in
      timed t `Compute (fun () -> Sbt_prim.Merge.merge2 ~a ~b ~dst ~key_field:kf);
      [ (-1, dst) ]
  | P.Kway_merge ->
      if List.length uas > Sbt_prim.Merge.max_inputs then raise (Rejected "kway: too many inputs");
      let kf = key_in params uas and width = one_width "kway" uas in
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
          (* One Compute span; the outputs' allocation inside it is Mem,
             taken back out. *)
          let mem0 = t.ns.mem and t0 = Sbt_sim.Clock.now_ns () in
          let dsts =
            Sbt_prim.Segment.split ~src ~ts_field:tf ~window_size:ws ~slide
              ~alloc:(fun ~i ~win:_ ~count -> mk ~i ~width:(U.width src) ~capacity:count ())
              ()
          in
          ignore (charge t `Compute t0);
          t.ns.compute <- t.ns.compute -. (t.ns.mem -. mem0);
          dsts)
  | P.Sum_cnt ->
      let src = as_one uas in
      let vf = value_in params uas in
      let s, n = timed t `Compute (fun () -> Sbt_prim.Agg.sum_count src ~field:vf) in
      one_row ~mk [| Int64.to_int32 s; Int32.of_int n |]
  | P.Top_k ->
      let src = as_one uas in
      let vf = value_in params uas in
      let k = k_param params in
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
      let kf = key_in params uas and vf = value_in params uas in
      let runs = timed t `Compute (fun () -> Sbt_prim.Join.runs ~left ~right ~key_field:kf) in
      let dst = mk ~width:3 ~capacity:(Sbt_prim.Join.size runs) () in
      timed t `Compute (fun () -> Sbt_prim.Join.fill runs ~dst ~value_field:vf);
      [ (-1, dst) ]
  | P.Count -> one_row ~mk [| Int32.of_int (Sbt_prim.Agg.count (as_one uas)) |]
  | P.Sum ->
      (* WinSum consumes all of a window's segments directly. *)
      let vf = value_in params uas in
      let total =
        timed t `Compute (fun () ->
            List.fold_left (fun acc ua -> Int64.add acc (Sbt_prim.Agg.sum ua ~field:vf)) 0L uas)
      in
      one_row ~mk [| Int64.to_int32 total; Int64.to_int32 (Int64.shift_right_logical total 32) |]
  | P.Median ->
      let src = as_one uas in
      let vf = value_in params uas in
      let m = timed t `Compute (fun () -> Sbt_prim.Agg.median src ~field:vf) in
      one_row ~mk [| Option.value ~default:0l m |]
  | P.Min_max ->
      let src = as_one uas in
      let vf = value_in params uas in
      let mm = timed t `Compute (fun () -> Sbt_prim.Agg.min_max src ~field:vf) in
      let lo, hi = Option.value ~default:(0l, 0l) mm in
      one_row ~mk [| lo; hi |]
  | P.Average ->
      let src = as_one uas in
      let vf = value_in params uas in
      let avg =
        timed t `Compute (fun () ->
            let s, n = Sbt_prim.Agg.sum_count src ~field:vf in
            if n = 0 then 0L else Int64.div s (Int64.of_int n))
      in
      one_row ~mk [| Int64.to_int32 avg |]
  | P.Sum_per_key | P.Count_per_key | P.Avg_per_key | P.Median_per_key | P.Unique ->
      let src = as_one uas in
      let kf = key_in params uas in
      (* Count_per_key and Unique read no value field. *)
      let vf = if op = P.Count_per_key || op = P.Unique then 0 else value_in params uas in
      let groups = timed t `Compute (fun () -> Sbt_prim.Keyed.group_count ~src ~key_field:kf) in
      let dst = mk ~width:2 ~capacity:groups () in
      timed t `Compute (fun () ->
          match op with
          | P.Sum_per_key -> Sbt_prim.Keyed.sum_per_key ~src ~dst ~key_field:kf ~value_field:vf
          | P.Count_per_key -> Sbt_prim.Keyed.count_per_key ~src ~dst ~key_field:kf
          | P.Avg_per_key -> Sbt_prim.Keyed.avg_per_key ~src ~dst ~key_field:kf ~value_field:vf
          | P.Median_per_key ->
              Sbt_prim.Keyed.median_per_key ~src ~dst ~key_field:kf ~value_field:vf
          | _ -> Sbt_prim.Keyed.distinct_keys ~src ~dst ~key_field:kf);
      [ (-1, dst) ]
  | P.Top_k_per_key ->
      let src = as_one uas in
      let kf = key_in params uas and vf = value_in params uas in
      let k = k_param params in
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
            let n = timed t `Compute (fun () -> Sbt_prim.Filter.count_in_band ~src ~field ~lo ~hi) in
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

(* A chain runs as one {!F.run} kernel.  It allocates the output once,
   after its count pass; [mk] times that as Mem from inside the Compute
   span, so it is taken back out of Compute to count once. *)
let run_chain t uas ~(mk : ?i:int -> width:int -> capacity:int -> unit -> U.t) c =
  let src = as_one uas in
  let dw =
    match F.width_after (U.width src) c.steps with
    | Some dw -> dw
    | None -> raise (Rejected "invoke: chain invalid for input width")
  in
  let mem0 = t.ns.mem and t0 = Sbt_sim.Clock.now_ns () in
  let dst = F.run ~steps:c.steps ~src ~alloc:(fun n -> mk ~width:dw ~capacity:n ()) in
  ignore (charge t `Compute t0);
  t.ns.compute <- t.ns.compute -. (t.ns.mem -. mem0);
  [ (-1, dst) ]

(* The audit hints of a call's outputs from the [i]th on: one
   (predecessor, output) pair per output that has a hint. *)
let rec audit_hints t hints i = function
  | [] -> []
  | (_, ua) :: rest -> (
      match hint_at hints i with
      | Some h -> encode_hint_for_audit t h (U.id ua) :: audit_hints t hints (i + 1) rest
      | None -> audit_hints t hints (i + 1) rest)

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
  let mk ?(i = 0) ~width ~capacity () =
    alloc_out t ?hint:(hint_at hints i) ~producer ~width ~capacity ()
  in
  let kind, outputs =
    match chain with
    | [ (op, params) ] -> (`Op op, run_op t uas ~mk op params)
    | _ ->
        let c = parse_chain t chain in
        (`Chain c, run_chain t uas ~mk c)
  in
  let ts = now_us t in
  let in_ids () = List.map U.id uas @ Option.to_list trigger in
  let out_ids = List.map (fun (_, ua) -> U.id ua) outputs in
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
           { ts; op = P.to_id op; inputs = in_ids (); outputs = out_ids;
             hints = audit_hints t hints 0 outputs })
  | `Chain { ops; params; hash; _ } ->
      append_record t
        (Sbt_attest.Record.Fused
           { ts; ops; params; chain = hash; inputs = in_ids (); outputs = out_ids;
             hints = audit_hints t hints 0 outputs }));
  let out_refs =
    List.map (fun (win, ua) -> { win; ref_ = mint_ref t ua; events = U.length ua }) outputs
  in
  (* Sealing the outputs and retiring the inputs touch neither the audit
     nor the references just minted, so they come last, in one Mem span. *)
  let t0 = Sbt_sim.Clock.now_ns () in
  List.iter (fun (_, ua) -> Alloc.produce t.alloc ua) outputs;
  if retire_inputs then List.iter2 (retire t) inputs uas;
  ignore (charge t `Mem t0);
  out_refs

let chain_name = function [ (op, _) ] -> P.name op | _ -> "fused"

(* One batch stage on segment [o], traced as a plain invoke would be. *)
let step t hints (o : output) chain =
  match t.cfg.tracer with
  | None -> do_invoke t ~chain ~inputs:[ o.ref_ ] ~trigger:None ~hints ~retire_inputs:true
  | Some _ ->
      traced_prim t (chain_name chain) (fun () ->
          do_invoke t ~chain ~inputs:[ o.ref_ ] ~trigger:None ~hints ~retire_inputs:true)

(* The batch plan's stages on segment [o], each output keeping its window. *)
let rec stages t w (o : output) = function
  | [] -> o
  | chain :: rest -> (
      match step t (try List.assoc o.win w.stage_hints with Not_found -> []) o chain with
      | [ out ] -> stages t w { out with win = o.win } rest
      | _ -> raise (Rejected "windowing: a batch stage must have one output"))

(* One world switch per batch: ingest the frame and, given a windowing
   step, run Segment on it and then the batch plan on every segment whose
   window is still open.  The records are the ones the three separate
   calls would append, in per-batch order: Ingress, the Windowing
   records, then one record per plan step per open segment.  Segments of
   windows below [first_open] come back unstaged, for the late policy. *)
let do_ingest_batch t ~payload ~encrypted ~stream ~seq ~mac ~windowing =
  match refusal t ~payload ~encrypted ~stream ~seq ~mac with
  | Some (reason, stalled_ns) -> Refused { reason; stalled_ns }
  | None ->
      let batch, stalled_ns = do_ingest_events t ~payload ~encrypted ~stream ~seq in
      let staged w (o : output) = if o.win < w.first_open then o else stages t w o w.plan in
      let segments w = List.map (staged w) (step t [] batch [ (P.Segment, w.segment) ]) in
      Ingested { outs = Option.fold ~none:[ batch ] ~some:segments windowing; stalled_ns }

let egress_nonce window = Int64.logor 0x4547000000000000L (Int64.of_int window)

(* Corrections seal under their own nonce domain ("CT" vs the egress
   "EG"), keyed by (window, generation): a superseded result and its
   correction can never be confused or replayed for one another, and the
   cloud-side merge re-seals the winning generation under the canonical
   egress nonce so corrected output is byte-compatible with an in-order
   run. *)
let correction_nonce ~window ~gen =
  Int64.logor 0x4354000000000000L (Int64.of_int ((window * 256) + gen))

(* A result's tag binds its window, generation (0 for a result, 'R'), the
   shape of its rows and, with the domain byte, whether it is a result or
   a correction ('C'): no result opens as another window's, another
   generation's or a shorter one. *)
let result_ad ~gen ~window ~events ~width =
  Sbt_crypto.Aead.ad (if gen = 0 then 'R' else 'C') [ window; gen; events; width ]

let seal_out t ~input ~window ~nonce ~gen ~mk_record =
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
        payload)
  in
  let tag =
    match t.cfg.version with
    | Insecure -> Bytes.empty
    | Full | Clear_ingress | Io_via_os ->
        timed t `Crypto (fun () ->
            Sbt_crypto.Aead.seal t.egress ~nonce ~pos:0L
              ~ad:(result_ad ~gen ~window ~events ~width)
              cipher 0 (Bytes.length cipher))
  in
  append_record t (mk_record ~ts:(now_us t) ~uarray:(U.id ua));
  retire_ref t input;
  (* Audit records are flushed upon externalizing any result (paper §7). *)
  flush_log t;
  { window; cipher; tag; events; width }

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
  seal_out t ~input ~window ~nonce:(egress_nonce window) ~gen:0 ~mk_record:(fun ~ts ~uarray ->
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
  retire_ref t input

let do_egress_correction t ~input ~window ~gen =
  if gen <= 0 || gen > 255 then raise (Rejected "correction: generation out of range");
  seal_out t ~input ~window ~nonce:(correction_nonce ~window ~gen) ~gen
    ~mk_record:(fun ~ts ~uarray -> Sbt_attest.Record.Correction { ts; uarray; win_no = window; gen })

(* --- certified UDFs (paper 4.2) ---------------------------------------- *)

let do_install_udf t ~udf ~cert =
  (* The trusted party is the cloud consumer; its key doubles as the UDF
     certification key.  Anything with a bad certificate never runs. *)
  let cert = Udf.certificate_of_bytes cert in
  if not (Udf.verify ~key:t.cfg.egress_key udf cert) then
    raise (Rejected "udf: certificate verification failed");
  Hashtbl.replace t.udfs (udf.Udf.name, udf.Udf.version) udf

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
  out

(* Explicit retirement: the only way a State-scope uArray dies (the data
   plane never retires state behind the control plane's back, but the
   control plane replaces state each window and must free the old one). *)
let do_retire t ~input =
  guard_ref t input;
  let ua = Opaque.resolve t.refs input in
  timed t `Mem (fun () ->
      Alloc.retire t.alloc ua;
      drop_ref t input)

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
  C.f64 w t.ns.compute;
  C.f64 w t.ns.mem;
  C.f64 w t.ns.crypto;
  C.f64 w t.ns.ingest;
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
  { blob; seq }

let dispatch : type a. t -> a request -> a =
 fun t -> function
  | R_ingest_events { payload; encrypted; stream; seq; mac; windowing } ->
      do_ingest_batch t ~payload ~encrypted ~stream ~seq ~mac ~windowing
  | R_ingest_watermark { value } -> do_ingest_watermark t ~value
  | R_declare_gap { stream; seq; events; windows; reason } ->
      do_declare_gap t ~stream ~seq ~events ~windows ~reason
  | R_invoke { chain; inputs; trigger; hints; retire_inputs } ->
      traced_prim t (chain_name chain) (fun () ->
          do_invoke t ~chain ~inputs ~trigger ~hints ~retire_inputs)
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
      ingress = Sbt_crypto.Aead.of_key cfg.ingress_key;
      egress = Sbt_crypto.Aead.of_key cfg.egress_key;
      pool;
      alloc;
      refs = Opaque.create ~rng;
      log = Sbt_attest.Log.create ~key:cfg.egress_key ~flush_every:256;
      rng;
      smc;
      smc_refused = Hashtbl.create 8;
      ns = { vt = 0.0; compute = 0.0; mem = 0.0; crypto = 0.0; ingest = 0.0 };
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
      last_chain = None;
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
      let now_ns () = t.ns.vt in
      Tz.Smc.set_observer smc ~tracer ~now_ns;
      Alloc.set_observer alloc ~tracer ~now_ns);
  (match cfg.version with
  | Insecure -> ()
  | Full | Clear_ingress | Io_via_os -> Tz.Smc.call smc Tz.Smc.Init ignore);
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
  t.ns.compute <- C.get_f64 r;
  t.ns.mem <- C.get_f64 r;
  t.ns.crypto <- C.get_f64 r;
  t.ns.ingest <- C.get_f64 r;
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

(* Transient SMC entry failures: the plan decides, per ingest frame
   identity, how many consecutive attempts the monitor refuses — so the
   schedule replays identically whatever order tasks run in.  Without
   faults the plan is never consulted. *)
let busy (type a) t (req : a request) =
  match req with
  | R_ingest_events { stream; seq; _ } when not (Sbt_fault.Fault.is_none t.cfg.fault_plan) ->
      let budget = Sbt_fault.Fault.smc_failures t.cfg.fault_plan ~stream ~seq in
      budget > 0
      &&
      let refused = Option.value ~default:0 (Hashtbl.find_opt t.smc_refused (stream, seq)) in
      refused < budget
      && begin
           Hashtbl.replace t.smc_refused (stream, seq) (refused + 1);
           true
         end
  | _ -> false

let call (type a) t (req : a request) : a =
  match t.cfg.version with
  | Insecure -> dispatch t req
  | Full | Clear_ingress | Io_via_os ->
      if busy t req then Tz.Smc.refuse t.smc Tz.Smc.Invoke
      else Tz.Smc.call t.smc Tz.Smc.Invoke (fun () -> dispatch t req)

let debug_dump t =
  match t.cfg.version with
  | Insecure -> "insecure: no TEE"
  | Full | Clear_ingress | Io_via_os ->
      Tz.Smc.call t.smc Tz.Smc.Debug (fun () ->
          Printf.sprintf "refs=%d committed=%dB groups=%d" (Opaque.live_count t.refs)
            (Pool.committed_bytes t.pool) (Alloc.live_groups t.alloc))

let finalize t =
  match t.cfg.version with
  | Insecure -> flush_log t
  | Full | Clear_ingress | Io_via_os -> Tz.Smc.call t.smc Tz.Smc.Finalize (fun () -> flush_log t)

let uploaded_batches t = List.rev t.uploaded

let audit_records_for_test t =
  flush_log t;
  List.concat_map
    (fun b -> Sbt_attest.Log.open_batch ~key:t.cfg.egress_key b)
    (uploaded_batches t)

(* Verify [r]'s tag as generation [gen] of its window under [k], then
   decrypt a copy of its bytes under [nonce]. *)
let open_copy k ~gen ~nonce ~fn (r : sealed_result) =
  let p = Bytes.copy r.cipher in
  let ad = result_ad ~gen ~window:r.window ~events:r.events ~width:r.width in
  if not (Sbt_crypto.Aead.verify k ~ad ~tag:r.tag p 0 (Bytes.length p)) then
    invalid_arg (fn ^ ": MAC verification failed");
  Sbt_crypto.Aead.xcrypt k ~nonce ~pos:0L p 0 (Bytes.length p);
  p

let open_result ~egress_key (r : sealed_result) =
  let payload =
    open_copy (Sbt_crypto.Aead.of_key egress_key) ~gen:0 ~nonce:(egress_nonce r.window)
      ~fn:"Dataplane.open_result" r
  in
  Array.init r.events (fun i ->
      Array.init r.width (fun f -> Bytes.get_int32_le payload (4 * ((i * r.width) + f))))

(* Cloud-side correction merge: authenticate the winning correction,
   open it under its (window, gen) nonce, and re-seal the plaintext
   under the canonical egress nonce — after the merge, corrected output
   is byte-identical to what an in-order run seals for the window.
   Identity on untagged (Insecure) results, which {!open_result}
   refuses. *)
let reseal_correction ~egress_key ~gen (r : sealed_result) =
  if Bytes.length r.tag = 0 then r
  else begin
    let k = Sbt_crypto.Aead.of_key egress_key in
    let p =
      open_copy k ~gen ~nonce:(correction_nonce ~window:r.window ~gen)
        ~fn:"Dataplane.reseal_correction" r
    in
    let tag =
      Sbt_crypto.Aead.seal k ~nonce:(egress_nonce r.window) ~pos:0L
        ~ad:(result_ad ~gen:0 ~window:r.window ~events:r.events ~width:r.width)
        p 0 (Bytes.length p)
    in
    { r with cipher = p; tag }
  end

let stats (t : t) =
  {
    compute_ns = t.ns.compute;
    mem_ns = t.ns.mem;
    crypto_ns = t.ns.crypto;
    ingest_ns = t.ns.ingest;
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

let crypto_ns (t : t) = t.ns.crypto
let live_refs t = Opaque.live_count t.refs
let pool_committed_bytes t = Pool.committed_bytes t.pool
let pool_high_water_bytes t = Pool.high_water_bytes t.pool
let reset_high_water t = Pool.reset_high_water t.pool
let allocator t = t.alloc
let set_now_ns t ns = t.ns.vt <- ns
let now_ns t = t.ns.vt

let metrics_quote t ~nonce =
  let payload = Sbt_obs.Metrics.encode_snapshot t.reg in
  let measurement = Sbt_crypto.Sha256.digest payload in
  (payload, Sbt_attest.Quote.issue ~device_key:t.cfg.egress_key measurement ~nonce)

let set_ingest_width t w =
  if w <= 0 then invalid_arg "Dataplane.set_ingest_width: width must be positive";
  t.ingest_width <- w

let audit_records_produced t = Sbt_attest.Log.records_produced t.log
