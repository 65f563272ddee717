(** Maximum-sustainable-rate search (the paper's throughput methodology).

    §9.2: "We report the engine performance as its maximum input
    throughput when the pipeline output delay remains under a target."
    Given a recorded trace, this finds — by bracketing and bisection over
    trace replays — the highest ingestion rate whose worst per-window
    output delay stays within the target. *)

type result = {
  rate_eps : float;  (** max sustainable events/second *)
  delay_at_rate_ns : float;  (** worst window delay at that rate *)
  utilization : float;
  evals : int;  (** replays performed by the search *)
}

val max_rate : trace:Trace.t -> cores:int -> target_delay_ns:float -> unit -> result
(** The bisection stops at a relative width of 2%.  Returns rate 0 if
    even an idle trickle misses the target (the per-window compute
    alone exceeds the delay bound). *)
