type schema = { width : int; key_field : int; value_field : int; ts_field : int }

let default = { width = 3; key_field = 0; value_field = 1; ts_field = 2 }
let power = { width = 4; key_field = 0; value_field = 1; ts_field = 2 }
let bytes_per_event s = s.width * 4
let ticks_per_second = 1000

(* Event time vs arrival order.  An event carries one timestamp — when it
   happened ([event_ts], the only time windowing ever consults) — but the
   network delivers it at its own pace, so the engine additionally tracks
   when it showed up ([arrival_ts]).  The two coincide on an orderly
   stream; disorder is exactly their divergence. *)

type timing = { event_ts : int; arrival_ts : int }

let timing ~event_ts ~arrival_ts =
  if arrival_ts < event_ts then
    invalid_arg "Event.timing: an event cannot arrive before it happened";
  { event_ts; arrival_ts }
