(* Byte-wise AES-128 (FIPS-197 §5.1 and §5.3), kept as a test oracle for
   the word-oriented T-table cipher in [Sbt_crypto.Aes].  It derives its
   own S-box and key schedule and walks the spec's four round steps over a
   16-byte state, so it shares no tables or code with the cipher it
   checks.  The inverse cipher lives only here: the library encrypts
   (CTR mode) and never decrypts a block.  Slow by design: clarity over
   speed. *)

let xtime b = if b land 0x80 <> 0 then ((b lsl 1) lxor 0x1B) land 0xFF else (b lsl 1) land 0xFF

let gf_mul a b =
  let acc = ref 0 and a = ref a and b = ref b in
  while !b <> 0 do
    if !b land 1 <> 0 then acc := !acc lxor !a;
    a := xtime !a;
    b := !b lsr 1
  done;
  !acc land 0xFF

(* a^254 = a^-1 in GF(2^8); 0 maps to 0. *)
let gf_inv a =
  let rec pow base e acc =
    if e = 0 then acc
    else pow (gf_mul base base) (e lsr 1) (if e land 1 = 1 then gf_mul acc base else acc)
  in
  if a = 0 then 0 else pow a 254 1

let sbox =
  let rotl8 x k = ((x lsl k) lor (x lsr (8 - k))) land 0xFF in
  Array.init 256 (fun i ->
      let b = gf_inv i in
      b lxor rotl8 b 1 lxor rotl8 b 2 lxor rotl8 b 3 lxor rotl8 b 4 lxor 0x63)

let inv_sbox =
  let t = Array.make 256 0 in
  Array.iteri (fun i s -> t.(s) <- i) sbox;
  t

let rcon = [| 0x01; 0x02; 0x04; 0x08; 0x10; 0x20; 0x40; 0x80; 0x1B; 0x36 |]

(* 44 big-endian round-key words. *)
let expand_key raw =
  let w = Array.make 44 0 in
  for i = 0 to 3 do
    for j = 0 to 3 do
      w.(i) <- (w.(i) lsl 8) lor Char.code (Bytes.get raw ((4 * i) + j))
    done
  done;
  let sub_word x =
    (sbox.((x lsr 24) land 0xFF) lsl 24)
    lor (sbox.((x lsr 16) land 0xFF) lsl 16)
    lor (sbox.((x lsr 8) land 0xFF) lsl 8)
    lor sbox.(x land 0xFF)
  in
  let rot_word x = ((x lsl 8) lor (x lsr 24)) land 0xFFFFFFFF in
  for i = 4 to 43 do
    let tmp = w.(i - 1) in
    let tmp = if i mod 4 = 0 then sub_word (rot_word tmp) lxor (rcon.((i / 4) - 1) lsl 24) else tmp in
    w.(i) <- w.(i - 4) lxor tmp land 0xFFFFFFFF
  done;
  w

(* State is kept as 16 ints in column-major order (s.(4*c+r)). *)

let add_round_key st rk round =
  for c = 0 to 3 do
    let w = rk.((4 * round) + c) in
    for r = 0 to 3 do
      st.((4 * c) + r) <- st.((4 * c) + r) lxor ((w lsr (24 - (8 * r))) land 0xFF)
    done
  done

let sub_bytes st = for i = 0 to 15 do st.(i) <- sbox.(st.(i)) done

(* Row r rotates left by r. *)
let shift_rows st =
  let old = Array.copy st in
  for c = 0 to 3 do
    for r = 0 to 3 do
      st.((4 * c) + r) <- old.((4 * ((c + r) mod 4)) + r)
    done
  done

let inv_sub_bytes st = for i = 0 to 15 do st.(i) <- inv_sbox.(st.(i)) done

(* Row r rotates right by r. *)
let inv_shift_rows st =
  let old = Array.copy st in
  for c = 0 to 3 do
    for r = 0 to 3 do
      st.((4 * ((c + r) mod 4)) + r) <- old.((4 * c) + r)
    done
  done

let mix_columns st =
  for c = 0 to 3 do
    let i = 4 * c in
    let a0 = st.(i) and a1 = st.(i + 1) and a2 = st.(i + 2) and a3 = st.(i + 3) in
    st.(i) <- gf_mul a0 2 lxor gf_mul a1 3 lxor a2 lxor a3;
    st.(i + 1) <- a0 lxor gf_mul a1 2 lxor gf_mul a2 3 lxor a3;
    st.(i + 2) <- a0 lxor a1 lxor gf_mul a2 2 lxor gf_mul a3 3;
    st.(i + 3) <- gf_mul a0 3 lxor a1 lxor a2 lxor gf_mul a3 2
  done

let inv_mix_columns st =
  for c = 0 to 3 do
    let i = 4 * c in
    let a0 = st.(i) and a1 = st.(i + 1) and a2 = st.(i + 2) and a3 = st.(i + 3) in
    st.(i) <- gf_mul a0 0x0E lxor gf_mul a1 0x0B lxor gf_mul a2 0x0D lxor gf_mul a3 0x09;
    st.(i + 1) <- gf_mul a0 0x09 lxor gf_mul a1 0x0E lxor gf_mul a2 0x0B lxor gf_mul a3 0x0D;
    st.(i + 2) <- gf_mul a0 0x0D lxor gf_mul a1 0x09 lxor gf_mul a2 0x0E lxor gf_mul a3 0x0B;
    st.(i + 3) <- gf_mul a0 0x0B lxor gf_mul a1 0x0D lxor gf_mul a2 0x09 lxor gf_mul a3 0x0E
  done

(* [encrypt_block raw src soff dst doff]: [raw] is the 16-byte key. *)
let encrypt_block raw src soff dst doff =
  let rk = expand_key raw in
  let st = Array.init 16 (fun i -> Char.code (Bytes.get src (soff + i))) in
  add_round_key st rk 0;
  for round = 1 to 9 do
    sub_bytes st;
    shift_rows st;
    mix_columns st;
    add_round_key st rk round
  done;
  sub_bytes st;
  shift_rows st;
  add_round_key st rk 10;
  Array.iteri (fun i v -> Bytes.set dst (doff + i) (Char.chr v)) st

(* The inverse cipher (FIPS-197 §5.3), same arguments as [encrypt_block]. *)
let decrypt_block raw src soff dst doff =
  let rk = expand_key raw in
  let st = Array.init 16 (fun i -> Char.code (Bytes.get src (soff + i))) in
  add_round_key st rk 10;
  for round = 9 downto 1 do
    inv_shift_rows st;
    inv_sub_bytes st;
    add_round_key st rk round;
    inv_mix_columns st
  done;
  inv_shift_rows st;
  inv_sub_bytes st;
  add_round_key st rk 0;
  Array.iteri (fun i v -> Bytes.set dst (doff + i) (Char.chr v)) st

(* Byte-at-a-time CTR over the reference cipher, with [Sbt_crypto.Ctr]'s
   counter block: 8-byte big-endian nonce, 8-byte big-endian block index. *)
let ctr_xcrypt ~key ~nonce ~pos buf off len =
  let ctr = Bytes.create 16 and ks = Bytes.create 16 in
  for i = 0 to len - 1 do
    let abs = pos + i in
    Bytes.set_int64_be ctr 0 nonce;
    Bytes.set_int64_be ctr 8 (Int64.of_int (abs / 16));
    encrypt_block key ctr 0 ks 0;
    let c = Char.code (Bytes.get buf (off + i)) lxor Char.code (Bytes.get ks (abs mod 16)) in
    Bytes.set buf (off + i) (Char.chr c)
  done
