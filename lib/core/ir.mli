(** Typed pipeline IR and the operator fusion pass.

    The control plane {!lower}s a declared pipeline's per-batch stages
    into a flat node list, and {!fuse} collapses every maximal run of two
    or more adjacent per-record primitives
    (Filter∘Project∘Select∘ShiftKey chains) into one {!N_invoke} chain.
    The runtime always executes [fuse (lower p)]: every {!N_invoke} is one
    {!Dataplane.request.R_invoke}, one trusted entry and one audit record.
    A chain of one step is a plain invoke; a longer chain runs as one
    single-pass kernel with one composite record.  Non-fusable ops (Sort:
    it is not per-record) and the window boundary are hard barriers:
    fusion never crosses them. *)

type step = Sbt_prim.Primitive.t * Dataplane.param list
(** One primitive and its parameters, as {!Dataplane.request.R_invoke}
    carries it. *)

type node =
  | N_invoke of step list
      (** one trusted entry: a single batch stage, or (after {!fuse}) a
          chain of >= 2 adjacent per-record stages *)
  | N_window
      (** the batch/window phase boundary — a fusion barrier by
          construction (window ops run under the watermark trigger, not
          per segment) *)

val step_of_op : Pipeline.batch_op -> step
(** The primitive and parameters a batch stage invokes. *)

val lower : Pipeline.t -> node list
(** The pipeline's batch stages in declaration order, one single-step
    {!N_invoke} each, terminated by {!N_window}. *)

val fuse : node list -> node list
(** Greedy maximal-run fusion.  Runs of >= 2 adjacent single-step nodes
    whose primitive is {!Sbt_prim.Primitive.fusable} become one chain;
    lone fusable ops stay single (fusing one op buys nothing).  Chains
    and {!N_window} are barriers and pass through untouched, so the pass
    is idempotent: [fuse (fuse l) = fuse l]. *)

val switch_count : node list -> int
(** Trusted entries (world-switch pairs) the plan costs per segment. *)

val pp_node : Format.formatter -> node -> unit
val pp : Format.formatter -> node list -> unit
