(* xoshiro256** with its state in a record of four boxed Int64 fields,
   kept as a test oracle for [Sbt_crypto.Rng], whose state words live
   unboxed in a byte buffer.  Each draw here allocates; the point is that
   it is the textbook update, written field by field, and draws exactly
   what the library draws.  [draws] counts raw outputs, so a test can see
   [int_below]'s rejection loop fire. *)

type t = {
  mutable s0 : int64;
  mutable s1 : int64;
  mutable s2 : int64;
  mutable s3 : int64;
  mutable draws : int;
}

let splitmix64 s =
  let s = Int64.add s 0x9E3779B97F4A7C15L in
  let z = s in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  (s, Int64.logxor z (Int64.shift_right_logical z 31))

let create ~seed =
  let s, a = splitmix64 seed in
  let s, b = splitmix64 s in
  let s, c = splitmix64 s in
  let _, d = splitmix64 s in
  { s0 = a; s1 = b; s2 = c; s3 = d; draws = 0 }

let rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let next_int64 t =
  t.draws <- t.draws + 1;
  let result = Int64.mul (rotl (Int64.mul t.s1 5L) 7) 9L in
  let tmp = Int64.shift_left t.s1 17 in
  t.s2 <- Int64.logxor t.s2 t.s0;
  t.s3 <- Int64.logxor t.s3 t.s1;
  t.s1 <- Int64.logxor t.s1 t.s2;
  t.s0 <- Int64.logxor t.s0 t.s3;
  t.s2 <- Int64.logxor t.s2 tmp;
  t.s3 <- rotl t.s3 45;
  result

let int_below t n =
  assert (n > 0);
  (* Rejection sampling over the top 62 bits keeps the draw unbiased. *)
  let bound = Int64.of_int n in
  let rec draw () =
    let r = Int64.shift_right_logical (next_int64 t) 2 in
    let v = Int64.rem r bound in
    if Int64.sub r v > Int64.sub (Int64.sub 0x3FFFFFFFFFFFFFFFL bound) 1L then draw ()
    else Int64.to_int v
  in
  draw ()

let float_unit t =
  let r = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float r *. (1.0 /. 9007199254740992.0)

let int32_any t = Int64.to_int32 (next_int64 t)
let state t = (t.s0, t.s1, t.s2, t.s3)
