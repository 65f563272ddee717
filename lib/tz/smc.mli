(** Secure-monitor-call (SMC) crossings: the TEE's entire entry surface.

    The StreamBox-TZ data plane exports exactly four entry functions
    (paper §9.1): initialization, finalization, one debugging hook, and one
    function shared by all 23 trusted primitives, fused chains included.
    This module enforces that surface — every crossing names one of these
    four entries, and crosses the world boundary exactly once, with the
    switch pair charged to the platform's accounting.  What runs on the
    other side is the caller's: the data plane does its own dispatch. *)

type entry = Init | Finalize | Debug | Invoke

exception Entry_busy of entry
(** Raised by {!refuse}: a transient secure-monitor failure (the monitor
    bounces the call before any world switch).  Callers are expected to
    retry with backoff and degrade gracefully past their budget. *)

val entry_count : int
(** 4, by construction. *)

val entry_name : entry -> string

type t
(** The monitor of one platform. *)

val create : Platform.t -> t

val call : t -> entry -> (unit -> 'a) -> 'a
(** Crosses into the secure world through [entry], runs the work there
    (the platform's world is [Secure] for its whole duration), and
    crosses back.  Exceptions raised by the work still restore the
    normal world before propagating — a crashing primitive must not
    leave the model stuck in the TEE. *)

val refuse : t -> entry -> 'a
(** The monitor bounces a call to [entry]: counts it, traces it and
    raises {!Entry_busy} without entering the secure world (no switch
    pair is charged).  Used by the deterministic fault layer. *)

val switch_pairs : t -> int

val busy_rejections : t -> int
(** How many calls {!refuse} has bounced so far. *)

val set_observer : t -> tracer:Sbt_obs.Tracer.t -> now_ns:(unit -> float) -> unit
(** Record one complete span (pid 1, category ["smc"]) per charged
    switch pair — including calls whose work raised, since those still
    switch worlds — and one instant (category ["smc-busy"]) per
    {!Entry_busy} refusal.  Span timestamps come from [now_ns] (the
    caller's virtual clock) and durations from the platform's modeled
    switch cost, so observation cannot perturb the run. *)
