type schema = { width : int; key_field : int; value_field : int; ts_field : int }

let default = { width = 3; key_field = 0; value_field = 1; ts_field = 2 }
let power = { width = 4; key_field = 0; value_field = 1; ts_field = 2 }
let bytes_per_event s = s.width * 4
let ticks_per_second = 1000
