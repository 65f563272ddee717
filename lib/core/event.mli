(** Event schemas.

    An event is a fixed-width record of 32-bit fields.  The engine's
    default schema is the paper's 12-byte 3-field event (key, value,
    event-time); the power-grid benchmark uses a 16-byte 4-field sample.
    Timestamps are event-time ticks (the workloads use 1000 ticks per
    second of event time). *)

type schema = {
  width : int;
  key_field : int;
  value_field : int;
  ts_field : int;
}

val default : schema
(** 3 fields: key=0, value=1, ts=2. *)

val power : schema
(** 4 fields: plugkey=0 (house*256+plug), power=1, ts=2, house=3.  The
    key field is the plug key so GroupBy groups per plug. *)

val bytes_per_event : schema -> int

val ticks_per_second : int
(** 1000: event-time resolution of all workloads and window sizes. *)
