(** The six benchmarks of the paper's evaluation (§9.2), each pairing a
    pipeline with its workload generator and the paper's per-benchmark
    output-delay target.

    Dataset substitutions (see DESIGN.md §2): the DEBS'15 taxi trace is
    modeled by 11k distinct ids under Zipf popularity; the Intel Lab
    sensor trace by per-mote temperature random walks; the DEBS'14 power
    trace by house x plug structured samples with per-plug baselines. *)

type t = {
  name : string;
  pipeline : Sbt_core.Pipeline.t;
  target_delay_ms : float;  (** Figure 7's per-benchmark delay target *)
  spec : Datagen.spec;
}

val topk : ?windows:int -> ?events_per_window:int -> ?batch_events:int -> ?encrypted:bool -> unit -> t
val distinct : ?windows:int -> ?events_per_window:int -> ?batch_events:int -> ?encrypted:bool -> unit -> t
val join : ?windows:int -> ?events_per_window:int -> ?batch_events:int -> ?encrypted:bool -> unit -> t
val win_sum : ?windows:int -> ?events_per_window:int -> ?batch_events:int -> ?encrypted:bool -> unit -> t

val fps : ?windows:int -> ?events_per_window:int -> ?batch_events:int -> ?encrypted:bool -> unit -> t
(** The fusion showcase ({!Sbt_core.Pipeline.fps_chain}): five adjacent
    fusable per-record batch stages, which run as one fused chain per
    segment — one world switch and one composite audit record where the
    stages alone would cost five. *)

val filter : ?windows:int -> ?events_per_window:int -> ?batch_events:int -> ?encrypted:bool -> unit -> t
val power : ?windows:int -> ?events_per_window:int -> ?batch_events:int -> ?encrypted:bool -> unit -> t

val vitals : ?windows:int -> ?events_per_window:int -> ?batch_events:int -> ?encrypted:bool -> unit -> t
(** Medical vitals ({!Sbt_core.Pipeline.vitals}): patient-keyed
    heart-rate walks through sort + per-key average — sealed output is
    insensitive to arrival order, the reference workload for disorder
    and late-data runs.  Not part of the paper's six ({!all}). *)

val all : ?windows:int -> ?events_per_window:int -> ?batch_events:int -> ?encrypted:bool -> unit -> t list
(** The paper's six (Figure 7 order) plus [fps]. *)

val by_name : string -> (?windows:int -> ?events_per_window:int -> ?batch_events:int -> ?encrypted:bool -> unit -> t) option

val frames : t -> Sbt_net.Frame.t list
(** [Datagen.frames t.spec].  The stream is a function of the spec alone:
    generators that keep state (the WinSum and Vitals random walks)
    restart it for each new generator, so two calls on one [t] give equal
    frames. *)

val mix_names : string list
(** The named multi-tenant workload mixes: ["taxi"] (per-fleet taxi
    analytics: topk/distinct), ["power"] (per-district grid monitoring:
    power/winsum), ["mixed"] (all seven benchmarks round-robin). *)

val mix :
  ?windows:int ->
  ?events_per_window:int ->
  ?batch_events:int ->
  ?encrypted:bool ->
  string ->
  int ->
  t option
(** [mix name i] is tenant [i]'s workload in the named mix — tenants
    cycle through the mix's constructors — or [None] for an unknown mix
    name. *)
