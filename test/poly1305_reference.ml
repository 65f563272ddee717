(* Poly1305 (RFC 8439 §2.5) over plain numbers, kept as a test oracle for
   the 26-bit-limb hash in [Sbt_crypto.Poly1305].  A number is a
   little-endian array of 8-bit limbs; addition and multiplication are
   schoolbook, and reduction modulo 2^130 − 5 folds the bits above 2^130
   back in times 5 until none are left.  It shares no code with the
   library and is slow by design: clarity over speed. *)

(* 320 bits: room for the product of two 136-bit numbers. *)
let limbs = 40

let of_bytes b off len =
  Array.init limbs (fun i -> if i < len then Char.code (Bytes.get b (off + i)) else 0)

let small n = Array.init limbs (fun i -> if i = 0 then n else 0)

(* Propagate carries so every limb is one byte again. *)
let normalize a =
  let carry = ref 0 in
  Array.map
    (fun x ->
      let v = x + !carry in
      carry := v lsr 8;
      v land 0xFF)
    a

let add a b = normalize (Array.init limbs (fun i -> a.(i) + b.(i)))

let mul a b =
  let p = Array.make limbs 0 in
  for i = 0 to limbs - 1 do
    for j = 0 to limbs - 1 - i do
      p.(i + j) <- p.(i + j) + (a.(i) * b.(j))
    done
  done;
  normalize p

(* 2^130 is bit 2 of limb 16. *)
let high a =
  Array.init limbs (fun i ->
      let j = i + 16 in
      let lo = if j < limbs then a.(j) lsr 2 else 0 in
      let hi = if j + 1 < limbs then (a.(j + 1) land 3) lsl 6 else 0 in
      lo lor hi)

let low a = Array.mapi (fun i x -> if i < 16 then x else if i = 16 then x land 3 else 0) a
let is_zero a = Array.for_all (( = ) 0) a

(* x mod 2^130 − 5: x = low + 2^130 · high ≡ low + 5 · high.  Once below
   2^130, x ≥ p exactly when x + 5 reaches 2^130, and then x − p is the
   low 130 bits of x + 5. *)
let rec reduce a =
  let h = high a in
  if not (is_zero h) then reduce (add (low a) (mul h (small 5)))
  else
    let a5 = add a (small 5) in
    if is_zero (high a5) then a else low a5

let clamp r =
  Array.mapi
    (fun i x ->
      if i = 3 || i = 7 || i = 11 || i = 15 then x land 15
      else if i = 4 || i = 8 || i = 12 then x land 252
      else x)
    r

(* [mac ~key msg]: the RFC's one-time authenticator under r || s.  Each
   block, the short last one too, gets a 1 byte just above its data. *)
let mac ~key msg =
  let r = clamp (of_bytes key 0 16) and s = of_bytes key 16 16 in
  let len = Bytes.length msg in
  let acc = ref (small 0) in
  let off = ref 0 in
  while !off < len do
    let n = min 16 (len - !off) in
    let block = of_bytes msg !off n in
    block.(n) <- 1;
    acc := reduce (mul (add !acc block) r);
    off := !off + 16
  done;
  let t = add !acc s in
  Bytes.init 16 (fun i -> Char.chr t.(i))
