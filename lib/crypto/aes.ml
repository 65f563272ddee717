(* The AES S-box, generated from multiplicative inverses in GF(2^8)
   followed by the affine transform (FIPS-197 §5.1.1).  We compute it at
   startup instead of embedding the 256-entry literal: fewer magic numbers
   and the generation doubles as a self-check of our GF(2^8) arithmetic. *)

let xtime b = if b land 0x80 <> 0 then ((b lsl 1) lxor 0x1B) land 0xFF else (b lsl 1) land 0xFF

let gf_mul a b =
  let acc = ref 0 and a = ref a and b = ref b in
  while !b <> 0 do
    if !b land 1 <> 0 then acc := !acc lxor !a;
    a := xtime !a;
    b := !b lsr 1
  done;
  !acc land 0xFF

let gf_inv a =
  if a = 0 then 0
  else begin
    (* a^254 = a^-1 in GF(2^8); square-and-multiply over the 8-bit field. *)
    let rec pow base e acc =
      if e = 0 then acc
      else pow (gf_mul base base) (e lsr 1) (if e land 1 = 1 then gf_mul acc base else acc)
    in
    pow a 254 1
  end

let sbox =
  let rotl8 x k = ((x lsl k) lor (x lsr (8 - k))) land 0xFF in
  Array.init 256 (fun i ->
      let b = gf_inv i in
      b lxor rotl8 b 1 lxor rotl8 b 2 lxor rotl8 b 3 lxor rotl8 b 4 lxor 0x63)

(* T-tables, derived from the S-box the same way.  A state column is one
   big-endian 32-bit word; te0.(x) is MixColumns applied to the column
   (S(x), 0, 0, 0), i.e. the bytes (2·S(x), S(x), S(x), 3·S(x)), and te1,
   te2, te3 are its rotations for input rows 1-3.  One round of SubBytes,
   ShiftRows and MixColumns is then four lookups and three XORs per
   column. *)

let ror8 x = ((x lsr 8) lor (x lsl 24)) land 0xFFFFFFFF

let te0 =
  Array.map
    (fun s -> (xtime s lsl 24) lor (s lsl 16) lor (s lsl 8) lor (xtime s lxor s))
    sbox

let te1 = Array.map ror8 te0
let te2 = Array.map ror8 te1
let te3 = Array.map ror8 te2

let rcon = [| 0x01; 0x02; 0x04; 0x08; 0x10; 0x20; 0x40; 0x80; 0x1B; 0x36 |]

type key = { rk : int array (* 44 words, big-endian per FIPS-197 *) }

let get32 b off = Int32.to_int (Bytes.get_int32_be b off) land 0xFFFFFFFF

let expand_key raw =
  if Bytes.length raw <> 16 then invalid_arg "Aes.expand_key: key must be 16 bytes";
  let w = Array.make 44 0 in
  for i = 0 to 3 do
    w.(i) <- get32 raw (4 * i)
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
  { rk = w }

(* Every lookup index is masked to one byte, so the unchecked reads stay
   inside the 256-entry tables. *)
let t (tbl : int array) x = Array.unsafe_get tbl (x land 0xFF)

(* Round-key indices are constants below 44, the length of every schedule
   [expand_key] builds. *)
let rk_word (rk : int array) i = Array.unsafe_get rk i

(* Last round: SubBytes and ShiftRows only, no MixColumns. *)
let last_round rk k a b c d =
  (t sbox (a lsr 24) lsl 24) lor (t sbox (b lsr 16) lsl 16) lor (t sbox (c lsr 8) lsl 8) lor t sbox d
  lxor rk_word rk k

let xor_be buf off w =
  Bytes.set_int32_be buf off (Int32.logxor (Bytes.get_int32_be buf off) (Int32.of_int w))

(* The one cipher loop: the output words are XORed into [buf] as they
   leave the last round, which is CTR mode's whole use of a block. *)
let xor_encrypt key w0 w1 w2 w3 buf off =
  let rk = key.rk in
  let s0 = ref (w0 lxor rk_word rk 0) and s1 = ref (w1 lxor rk_word rk 1) in
  let s2 = ref (w2 lxor rk_word rk 2) and s3 = ref (w3 lxor rk_word rk 3) in
  for round = 1 to 9 do
    let a = !s0 and b = !s1 and c = !s2 and d = !s3 and k = 4 * round in
    s0 := t te0 (a lsr 24) lxor t te1 (b lsr 16) lxor t te2 (c lsr 8) lxor t te3 d lxor rk_word rk k;
    s1 := t te0 (b lsr 24) lxor t te1 (c lsr 16) lxor t te2 (d lsr 8) lxor t te3 a lxor rk_word rk (k + 1);
    s2 := t te0 (c lsr 24) lxor t te1 (d lsr 16) lxor t te2 (a lsr 8) lxor t te3 b lxor rk_word rk (k + 2);
    s3 := t te0 (d lsr 24) lxor t te1 (a lsr 16) lxor t te2 (b lsr 8) lxor t te3 c lxor rk_word rk (k + 3)
  done;
  let a = !s0 and b = !s1 and c = !s2 and d = !s3 in
  xor_be buf off (last_round rk 40 a b c d);
  xor_be buf (off + 4) (last_round rk 41 b c d a);
  xor_be buf (off + 8) (last_round rk 42 c d a b);
  xor_be buf (off + 12) (last_round rk 43 d a b c)

let encrypt_block key src soff dst doff =
  let w0 = get32 src soff and w1 = get32 src (soff + 4) in
  let w2 = get32 src (soff + 8) and w3 = get32 src (soff + 12) in
  Bytes.fill dst doff 16 '\000';
  xor_encrypt key w0 w1 w2 w3 dst doff
