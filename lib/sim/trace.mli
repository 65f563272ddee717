(** Recorded task graphs and their replay.

    The engine executes a workload once for real (under {!Des}), records
    every task's measured virtual cost and dependencies, and then replays
    the graph here — at any core count and any ingestion rate — without
    re-running the computation.  The rate search of Figure 7 performs
    thousands of such replays in milliseconds.

    Arrival pacing: a node with [arrival_events = Some n] models a source
    message that arrives once [n] events have been emitted at the target
    rate, i.e. at virtual time [n / rate]. *)

type role = Plain | Watermark_arrival of int | Egress_of of int
(** Window roles used to measure per-window output delay. *)

type node = {
  label : string;
  cost_ns : float;
  deps : int list;  (** indices of earlier nodes *)
  arrival_events : int option;
  role : role;
}

type t

val of_nodes : node array -> t
(** Validates that deps point backwards; raises [Invalid_argument]
    otherwise. *)

val node_count : t -> int

val nodes : t -> node array
(** A copy of the recorded nodes in schedule order. *)

val total_cost_ns : t -> float

val total_events : t -> int
(** Largest arrival count in the trace = events the source emitted. *)

type replay_result = {
  makespan_ns : float;
  delays : (int * float) list;  (** (window, output delay ns), windows in order *)
  max_delay_ns : float;  (** 0 when no window completed *)
  mean_delay_ns : float;
  utilization : float;
}

val replay : t -> cores:int -> rate_eps:float -> replay_result
(** [rate_eps] is the ingestion rate in events per second;
    [Float.infinity] disables pacing.  Output delay for window [w] is
    measured from the {e arrival} of its watermark to the completion of
    its egress task, matching the paper's §2.2 definition. *)
