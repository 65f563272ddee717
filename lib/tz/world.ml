type t = Normal | Secure

let equal a b =
  match (a, b) with
  | Normal, Normal | Secure, Secure -> true
  | Normal, Secure | Secure, Normal -> false

let to_string = function Normal -> "normal" | Secure -> "secure"
