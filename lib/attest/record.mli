(** Audit records (paper §7, Figure 6).

    The data plane emits one record per boundary event: data/watermark
    ingestion, window assignment, primitive execution, and result
    externalization.  Records reference uArrays by the data plane's
    monotonically increasing identifiers (never by address or opaque
    reference) and carry the data-plane timestamp. *)

type gap_reason =
  | Link_loss  (** frame never arrived (sequence hole at ingress) *)
  | Corrupt_ingress  (** frame arrived but failed MAC/decode and was rejected *)
  | Smc_unavailable  (** SMC retry budget exhausted; batch dropped outside *)
  | Pool_pressure  (** secure pool shed the batch under memory pressure *)

val gap_reason_name : gap_reason -> string
val gap_reason_tag : gap_reason -> int
val gap_reason_of_tag : int -> gap_reason

type t =
  | Ingress of { ts : int; uarray : int; stream : int; seq : int }
      (** A batch entered the TEE and became uArray [uarray].  [stream]
          and [seq] carry the frame's wire identity so the verifier can
          check per-stream sequence continuity (loss-awareness). *)
  | Ingress_watermark of { ts : int; id : int; value : int }
      (** A watermark with event-time [value] was ingested; it gets an id
          so later execution records can name it as a trigger. *)
  | Windowing of { ts : int; data_in : int; win_no : int; data_out : int }
      (** Segment assigned part of [data_in] to window [win_no],
          producing [data_out]. *)
  | Execution of {
      ts : int;
      op : int;  (** {!Sbt_prim.Primitive.to_id} *)
      inputs : int list;
      outputs : int list;
      hints : int64 list;  (** encoded consumption hints, optional *)
    }
  | Egress of { ts : int; uarray : int; win_no : int }
      (** A window result left the TEE (encrypted and signed). *)
  | Gap of {
      ts : int;
      stream : int;
      seq : int;
      events : int;  (** declared event count lost (0 when unknown) *)
      windows : int list;  (** windows the lost batch would have fed *)
      reason : gap_reason;
    }
      (** The edge declares, inside the TEE, that frame [seq] of [stream]
          was lost to a benign fault.  Declared gaps let the verifier
          report degradation instead of flagging a violation; missing
          dataflow {e without} a covering gap remains a violation. *)
  | Checkpoint of { ts : int; seq : int; watermark : int }
      (** In-TEE state was sealed as checkpoint [seq] after watermark
          [watermark].  Riding in the signed audit stream makes the
          latest checkpoint sequence number attestable: on restart the
          recovery path derives its rollback lower bound from these
          records, so the normal world cannot present a stale blob as
          fresh without also truncating the (MAC'd, sequenced) log. *)
  | Fused of {
      ts : int;
      ops : int list;
          (** ordered primitive ids of the fused chain
              ({!Sbt_prim.Primitive.to_id}), first-executed first *)
      params : bytes;  (** the chain's {!Sbt_prim.Fused.encode_steps} blob *)
      chain : bytes;  (** {!chain_hash} over [ops] and [params], computed in-TEE *)
      inputs : int list;
      outputs : int list;
      hints : int64 list;
    }
      (** One fused super-kernel execution (PR 7): the whole chain ran in
          a single trusted entry and emits this single composite record
          instead of one {!Execution} row per primitive.  The verifier
          replays it as the equivalent unfused chain and rejects forged
          compositions: a [chain] that does not match [ops]/[params], or
          an op {!Sbt_prim.Primitive.fusable} says cannot be fused. *)
  | Late_drop of { ts : int; uarray : int; win_no : int; events : int }
      (** [events] late records destined for already-closed window
          [win_no] were dropped {e and declared} under the drop+declare
          policy.  Like {!Gap}, the declaration downgrades what would be
          a violation into reported degradation — but only when the
          attested policy actually is drop+declare; under any other
          declared policy the verifier fires [Undeclared_late_handling]. *)
  | Correction of { ts : int; uarray : int; win_no : int; gen : int }
      (** Window [win_no] was reopened for late data and re-emitted as
          correction generation [gen] (1-based, contiguous) under the
          retract-and-reemit policy.  The sealed correction supersedes
          the window's prior egress; the cloud-side merge applies
          corrections in generation order. *)

val chain_hash : ops:int list -> params:bytes -> bytes
(** 16-byte truncated SHA-256 commitment to a fused chain: the ordered op
    ids and the parameter blob under a domain-separation prefix.  Both
    the data plane (when emitting) and the verifier (when replaying)
    compute it with this one function. *)

val encode_row : Buffer.t -> t -> unit
(** Raw row-order binary encoding (the uncompressed on-edge format whose
    size Figure 12 reports as "Raw"). *)

val decode_row : bytes -> int ref -> t
(** Raises [Invalid_argument] on malformed input. *)

val encode_all : t list -> bytes
val decode_all : bytes -> t list

val ts_of : t -> int
