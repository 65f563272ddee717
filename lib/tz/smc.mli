(** Secure-monitor-call (SMC) dispatch: the TEE's entire entry surface.

    The StreamBox-TZ data plane exports exactly four entry functions
    (paper §9.1): initialization, finalization, one debugging hook, and one
    function shared by all 23 trusted primitives, fused chains included.
    This module enforces that surface — handlers can only be registered
    for these four entries, and every call crosses the world boundary
    exactly once, with the switch pair charged to the platform's
    accounting. *)

type entry = Init | Finalize | Debug | Invoke

exception Entry_busy of entry
(** Raised by {!call} when an installed fault hook refuses the entry —
    modelling a transient secure-monitor failure (the monitor bounces the
    call before any world switch).  Callers are expected to retry with
    backoff and degrade gracefully past their budget. *)

val entry_count : int
(** 4, by construction. *)

val entry_name : entry -> string

type ('req, 'resp) t
(** A dispatch table whose handlers map ['req] to ['resp]. *)

val create : Platform.t -> ('req, 'resp) t

val register : ('req, 'resp) t -> entry -> ('req -> 'resp) -> unit
(** Raises [Invalid_argument] if [entry] already has a handler.  Handlers
    run in the secure world (the platform's world is [Secure] for their
    whole duration). *)

val call : ('req, 'resp) t -> entry -> 'req -> 'resp
(** Crosses into the secure world, runs the handler, crosses back.
    Raises [Not_found] if no handler is registered.  Exceptions raised by
    the handler still restore the normal world before propagating — a
    crashing primitive must not leave the model stuck in the TEE. *)

val switch_pairs : ('req, 'resp) t -> int

val set_fault_hook : ('req, 'resp) t -> (entry -> 'req -> bool) -> unit
(** Install a fault-injection hook consulted before every {!call}; when
    it returns [true] the call raises {!Entry_busy} without entering the
    secure world (no switch pair is charged).  Used by the deterministic
    fault layer; absent by default, in which case {!call} is exactly the
    pre-fault-model path. *)

val clear_fault_hook : ('req, 'resp) t -> unit

val busy_rejections : ('req, 'resp) t -> int
(** How many calls the fault hook has refused so far. *)

val set_observer :
  ('req, 'resp) t -> tracer:Sbt_obs.Tracer.t -> now_ns:(unit -> float) -> unit
(** Record one complete span (pid 1, category ["smc"]) per charged
    switch pair — including calls whose handler raised, since those
    still switch worlds — and one instant (category ["smc-busy"]) per
    {!Entry_busy} rejection.  Span timestamps come from [now_ns] (the
    caller's virtual clock) and durations from the platform's modeled
    switch cost, so observation cannot perturb the run. *)

val clear_observer : ('req, 'resp) t -> unit
