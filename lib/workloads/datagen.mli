(** Frame-stream generation (the paper's Generator program).

    Produces a source-ordered stream of event frames and watermarks:
    event times increase monotonically; after all events of a window have
    been emitted, a watermark carrying the window's end time follows; a
    final watermark closes the last window.  Batches may span window
    boundaries, exactly as in a real stream.

    A [disorder] fault plan splits event time from arrival order: each
    delayed event keeps its timestamp but re-arrives [1, max_lateness]
    ticks later (seeded, deterministic — same plan, same permutation).
    The {!watermark_strategy} then decides what the source claims about
    completeness, which is exactly what the in-TEE window close trusts. *)

type watermark_strategy =
  | Punctuation
      (** per-source punctuation: the generator emits the largest value
          that no undelivered event precedes — exact, so disorder delays
          window closes but never produces late data *)
  | Heuristic of int
      (** bounded-disorder estimate [max_ts_seen - bound]: cheap, but any
          event later than [bound] ticks arrives behind the watermark and
          becomes late data the engine's late policy must handle *)

type spec = {
  schema : Sbt_core.Event.schema;
  windows : int;  (** number of fixed windows to generate *)
  events_per_window : int;
  batch_events : int;
  window_ticks : int;  (** ticks between watermarks = the window slide *)
  window_span_ticks : int option;
      (** window size when sliding (> window_ticks); [None] = fixed *)
  streams : int;  (** interleaved source streams (2 for Join) *)
  encrypted : bool;
      (** encrypt each Events frame and tag it ({!Sbt_net.Frame.encrypt_payload}) *)
  authenticated : bool;
      (** tag each clear Events frame too; encrypted frames are always
          tagged.  Off by default: clear frames then carry no tag *)
  key : bytes;  (** source-edge AEAD key, used when [encrypted] or [authenticated] *)
  seed : int64;
  gen_record : Sbt_crypto.Rng.t -> ts:int32 -> int32 array;
      (** Fill one record given its event time; must return [schema.width]
          fields with the timestamp at [schema.ts_field] ({!frames} raises
          [Invalid_argument] otherwise).  Each {!frames} call creates one
          generator; state kept between calls must restart when a new one
          arrives, so that the stream depends only on the spec. *)
  disorder : Sbt_fault.Fault.plan;
      (** the reorder/delay plan ({!Sbt_fault.Fault.disorder_plan});
          [Fault.none] keeps the stream byte-identical to the historical
          in-order generator *)
  max_lateness_ticks : int;  (** upper bound on injected lateness *)
  watermark : watermark_strategy;
}

val default_spec : ?windows:int -> ?events_per_window:int -> ?batch_events:int -> unit -> spec
(** Uniform 3-field events: keys in [0, 10k), values uniform 32-bit. *)

val frames : spec -> Sbt_net.Frame.t list
val total_events : spec -> int
