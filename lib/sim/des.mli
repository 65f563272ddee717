(** Discrete-event simulation of an N-core edge platform.

    The reproduction container has a single physical core, so the paper's
    2/4/8-core scaling (Figure 7) is reproduced by *virtual-time*
    scheduling: tasks really execute (host-serialized, in virtual dispatch
    order, so all data and memory behaviour is real), their wall-clock
    compute time is measured, and a greedy list scheduler places them on N
    virtual cores.  A task's virtual cost is

      measured host ns * host_scale + modeled extra ns

    where the modeled extra covers costs the host cannot pay for real
    (world switches, boundary copies).  Tasks may schedule further tasks
    from inside their work function, so pipelines unfold dynamically.

    Determinism: given the same inputs, the task graph and every modeled
    cost are identical between runs; only measured compute varies with
    host noise.  The replayed-trace mode used by the rate-search harness
    ({!Rate_search}) eliminates even that. *)

type t
type task

val create : ?host_scale:float -> ?tracer:Sbt_obs.Tracer.t -> cores:int -> unit -> t
(** [tracer] records one complete span per executed task (pid 0, tid =
    virtual core, category ["des"]) at the task's virtual start/cost —
    never host wall-clock, so tracing cannot change the schedule. *)

val schedule :
  t ->
  ?deps:task list ->
  ?not_before:float ->
  label:string ->
  work:(start_ns:float -> float) ->
  unit ->
  task
(** [work ~start_ns] runs when the task is dispatched (at virtual time
    [start_ns]) and returns the modeled extra ns.  [not_before] is an
    earliest virtual start (used to pace ingestion at a target rate).
    [deps] may include tasks that already finished and the task currently
    executing. *)

val run : t -> unit
(** Drain the simulation.  Raises [Invalid_argument] if some scheduled
    task never became ready (dependency cycle). *)

val finish_ns : task -> float
(** Virtual completion time; raises [Invalid_argument] before {!run}
    completes the task. *)

val cost_ns_of : task -> float
val makespan_ns : t -> float
val busy_ns : t -> float
val tasks_executed : t -> int
val utilization : t -> float
(** busy / (makespan * cores). *)
