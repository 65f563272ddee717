let key_field = 0
let value_field = 1
let ts_field = 2
