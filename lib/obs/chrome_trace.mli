(** Chrome [trace_event] export (the JSON object format), loadable in
    Perfetto or chrome://tracing.

    Timestamps are converted from the tracer's virtual nanoseconds to
    the format's microseconds.  Event mapping: complete spans are
    [ph = "X"], instants [ph = "i"] (thread scope), counter samples
    [ph = "C"], plus [ph = "M"] metadata naming the two worlds. *)

val to_json : Tracer.t -> string
(** Process 0 is named ["normal-world"] and process 1 ["secure-world"]. *)

val write_file : Tracer.t -> path:string -> unit
