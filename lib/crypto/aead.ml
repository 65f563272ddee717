(* The tag is AES_kt(Poly1305_r(ad, data)), with r and kt taken from the
   key, never from the nonce: this repository seals under one (key,
   nonce) pair more than once (every fleet partition seals window w under
   [egress_nonce w]), and a Poly1305 one-time key reused that way would
   let the two tags solve for it. *)

type key = { ctr : Aes.key; r : Poly1305.key; kt : Aes.key }

let of_key raw =
  let d = Kdf.derive ~master:raw ~label:"aead-tag" 32 in
  { ctr = Aes.expand_key raw; r = Poly1305.key d 0; kt = Aes.expand_key (Bytes.sub d 16 16) }

let ad domain fields =
  let b = Bytes.create (1 + (8 * List.length fields)) in
  Bytes.set b 0 domain;
  List.iteri (fun i v -> Bytes.set_int64_le b (1 + (8 * i)) (Int64.of_int v)) fields;
  b

(* RFC 8439 §2.8's MAC data: ad, pad, data, pad, both lengths. *)
let tag k ~ad buf off len =
  let st = Poly1305.init k.r in
  Poly1305.pad16 st ad 0 (Bytes.length ad);
  Poly1305.pad16 st buf off len;
  let lens = Bytes.create 16 in
  Bytes.set_int64_le lens 0 (Int64.of_int (Bytes.length ad));
  Bytes.set_int64_le lens 8 (Int64.of_int len);
  Poly1305.pad16 st lens 0 16;
  let t = Poly1305.finish st in
  Aes.encrypt_block k.kt t 0 t 0;
  t

let verify k ~ad ~tag:given buf off len =
  Bytes.length given = 16
  &&
  let expected = tag k ~ad buf off len in
  let diff = ref 0 in
  for i = 0 to 15 do
    diff := !diff lor (Char.code (Bytes.get given i) lxor Char.code (Bytes.get expected i))
  done;
  !diff = 0

let xcrypt k ~nonce ~pos buf off len = Ctr.xcrypt (Ctr.of_key k.ctr ~nonce) ~pos buf off len

let seal k ~nonce ~pos ~ad buf off len =
  xcrypt k ~nonce ~pos buf off len;
  tag k ~ad buf off len
