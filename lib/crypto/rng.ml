(* The four xoshiro256** state words live in one 32-byte buffer.  ocamlopt
   keeps the Int64s read and written with [Bytes.get/set_int64_le]
   unboxed, so a draw allocates nothing. *)
type t = Bytes.t

let splitmix64 s =
  let s = Int64.add s 0x9E3779B97F4A7C15L in
  let z = s in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  (s, Int64.logxor z (Int64.shift_right_logical z 31))

let set_state t (s0, s1, s2, s3) =
  Bytes.set_int64_le t 0 s0;
  Bytes.set_int64_le t 8 s1;
  Bytes.set_int64_le t 16 s2;
  Bytes.set_int64_le t 24 s3

let state t =
  (Bytes.get_int64_le t 0, Bytes.get_int64_le t 8, Bytes.get_int64_le t 16, Bytes.get_int64_le t 24)

let create ~seed =
  let s, a = splitmix64 seed in
  let s, b = splitmix64 s in
  let s, c = splitmix64 s in
  let _, d = splitmix64 s in
  let t = Bytes.create 32 in
  set_state t (a, b, c, d);
  t

let[@inline] rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let[@inline] next_int64 t =
  let s0 = Bytes.get_int64_le t 0 and s1 = Bytes.get_int64_le t 8 in
  let s2 = Int64.logxor (Bytes.get_int64_le t 16) s0 in
  let s3 = Int64.logxor (Bytes.get_int64_le t 24) s1 in
  Bytes.set_int64_le t 0 (Int64.logxor s0 s3);
  Bytes.set_int64_le t 8 (Int64.logxor s1 s2);
  Bytes.set_int64_le t 16 (Int64.logxor s2 (Int64.shift_left s1 17));
  Bytes.set_int64_le t 24 (rotl s3 45);
  Int64.mul (rotl (Int64.mul s1 5L) 7) 9L

let int_below t n =
  assert (n > 0);
  (* Rejection sampling over the top 62 bits keeps the draw unbiased.  At
     n = max_int the limit would be -1 and reject every draw; at 0 it
     accepts r < n, the one unbiased choice there. *)
  let bound = Int64.of_int n in
  let limit = Int64.sub (Int64.sub 0x3FFFFFFFFFFFFFFFL bound) 1L in
  let limit = if limit < 0L then 0L else limit in
  let r = ref (Int64.shift_right_logical (next_int64 t) 2) in
  let v = ref (Int64.rem !r bound) in
  while Int64.sub !r !v > limit do
    r := Int64.shift_right_logical (next_int64 t) 2;
    v := Int64.rem !r bound
  done;
  Int64.to_int !v

let float_unit t =
  let r = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float r *. (1.0 /. 9007199254740992.0)

let int32_any t = Int64.to_int32 (next_int64 t)
