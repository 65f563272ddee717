(** Record-layout conventions shared by the trusted primitives.

    All analytics data lives in uArrays of fixed-width records of 32-bit
    fields.  The engine's standard event is 3 fields (12 bytes, the
    paper's default): key, value, timestamp.  Primitives take the
    relevant field indices as parameters, so these constants are
    conventions, not requirements. *)

val key_field : int
val value_field : int
val ts_field : int
