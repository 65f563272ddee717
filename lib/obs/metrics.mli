(** The metrics registry: counters, gauges and fixed-bucket latency
    histograms.

    Both worlds keep a registry of their own.  The normal-world (control
    plane) registry is read directly; the TEE-side registry must never be
    read across the boundary — the data plane serializes a snapshot with
    {!encode_snapshot} and exports it through the quote path
    ({!Sbt_core.Dataplane.metrics_quote}), so secure-world numbers reach
    the normal world only as an attested blob.

    Everything recorded here is a deterministic count or a modeled
    (virtual-time) quantity — never a host wall-clock reading — which is
    what keeps instrumentation observer-effect-free: the registry's
    content is identical run to run and independent of whether tracing
    is enabled. *)

type t
(** A registry.  Lookups are get-or-create by name; re-registering a
    name with a different kind raises [Invalid_argument].  Names must be
    non-empty and free of spaces and newlines (they key the line-based
    snapshot encoding). *)

val create : unit -> t
(** A fresh root registry (empty scope prefix). *)

val scoped : t -> string -> t
(** [scoped t "edge3"] is a view onto [t]'s underlying store that
    prefixes every metric name with ["edge3."] — M fleet nodes share one
    registry without colliding, and existing unscoped call sites keep
    their bare ["control.*"] names via the default root
    scope.  Scopes nest ([scoped (scoped t "edge3") "boot1"] prefixes
    ["edge3.boot1."]); {!snapshot} and friends always cover the whole
    shared store, in global registration order.  The scope name obeys
    the same lexical rules as metric names. *)

(** {2 Counters (monotonic)} *)

type counter

val counter : t -> string -> counter
val incr : counter -> unit

val add : counter -> int -> unit
(** Raises [Invalid_argument] on a negative delta — counters only move
    forward. *)

val counter_value : counter -> int

(** {2 Gauges (with high-water tracking)} *)

type gauge

val gauge : t -> string -> gauge

val set_gauge : gauge -> float -> unit
(** Sets the current value and folds it into the high-water mark. *)

val gauge_value : gauge -> float
val gauge_high_water : gauge -> float

(** {2 Fixed-bucket histograms} *)

type histogram

val default_bounds : float array
(** 1-2-5 decades from 1 us to 10 s, in nanoseconds — a latency
    histogram usable for anything from a world switch to a window
    close. *)

val histogram : ?bounds:float array -> t -> string -> histogram
(** [bounds] are strictly increasing inclusive upper bucket bounds; an
    implicit overflow bucket catches everything above the last bound.
    Raises [Invalid_argument] on empty or non-increasing bounds, or when
    re-registering an existing histogram with different bounds. *)

val observe : histogram -> float -> unit

val observations : histogram -> int
val sum : histogram -> float

val bucket_counts : histogram -> int array
(** One count per bound plus the final overflow bucket. *)

val percentile : histogram -> float -> float
(** [percentile h p] with [p] in [(0, 100]]: the inclusive upper bound
    of the bucket containing the ceil(p% * n)-th smallest observation;
    [infinity] when that observation sits in the overflow bucket; [nan]
    on an empty histogram. *)

(** {2 Snapshots} *)

type sample =
  | S_counter of { name : string; value : int }
  | S_gauge of { name : string; value : float; high_water : float }
  | S_histogram of {
      name : string;
      count : int;
      sum : float;
      p50 : float;
      p95 : float;
      p99 : float;
    }

val snapshot : t -> sample list
(** All samples, in registration order (deterministic). *)

val find_counter : t -> string -> int
(** Read a counter back by name; raises [Not_found] if absent or of a
    different kind.  ({!find_gauge_high_water} likewise.) *)

val find_gauge_high_water : t -> string -> float

val encode_snapshot : t -> bytes
(** Deterministic line-based serialization of {!snapshot} — the TEE
    export format (MAC'd by the quote path). *)

val decode_snapshot : bytes -> sample list
(** Inverse of {!encode_snapshot}; raises [Invalid_argument] on a
    malformed payload. *)

val to_json : t -> Json.t
(** The snapshot as a JSON object keyed by metric name (for the
    machine-readable bench output). *)
