(* Sealed-blob format (all little-endian):

     magic   5 bytes  "SBTC1"
     seq     4 bytes  checkpoint sequence number
     len     4 bytes  ciphertext length
     cipher  len      AES-128-CTR under K_enc, nonce derived from seq
     tag     32 bytes HMAC-SHA-256 under K_mac over magic..cipher

   K_enc / K_mac are derived from the device master key with the
   "sbt-ckpt" label, so checkpoint sealing never shares key material
   with egress or audit signing.  The sequence number is authenticated
   (it is under the MAC) and doubles as the CTR nonce, so two different
   checkpoints can never reuse a keystream. *)

let magic = "SBTC1"
let label = "sbt-ckpt"

exception Tamper
exception Rollback of { got : int; expected : int }

let nonce_of_seq seq = Int64.logor 0x434B5054_00000000L (Int64.of_int seq)

let put_u32 b off v =
  for i = 0 to 3 do
    Bytes.set b (off + i) (Char.chr ((v lsr (8 * i)) land 0xFF))
  done

let header seq cipher_len =
  let hdr = Bytes.create (String.length magic + 8) in
  Bytes.blit_string magic 0 hdr 0 (String.length magic);
  put_u32 hdr (String.length magic) seq;
  put_u32 hdr (String.length magic + 4) cipher_len;
  hdr

let seal ~device_key ~seq plaintext =
  if seq < 0 then invalid_arg "Seal.seal: negative sequence number";
  let enc = Sbt_crypto.Kdf.enc_key ~master:device_key ~label in
  let mac = Sbt_crypto.Kdf.mac_key ~master:device_key ~label in
  let cipher = Sbt_crypto.Ctr.xcrypt_bytes ~key:enc ~nonce:(nonce_of_seq seq) plaintext in
  let hdr = header seq (Bytes.length cipher) in
  let signed = Bytes.cat hdr cipher in
  let tag = Sbt_crypto.Hmac.mac ~key:mac signed in
  Bytes.cat signed tag

let unseal ~device_key ?(expect_at_least = 0) blob =
  let mac = Sbt_crypto.Kdf.mac_key ~master:device_key ~label in
  let hdr_len = String.length magic + 8 in
  if Bytes.length blob < hdr_len + 32 then raise Tamper;
  if Bytes.sub_string blob 0 (String.length magic) <> magic then raise Tamper;
  let signed_len = Bytes.length blob - 32 in
  let signed = Bytes.sub blob 0 signed_len in
  let tag = Bytes.sub blob signed_len 32 in
  if not (Sbt_crypto.Hmac.verify ~key:mac ~tag signed) then raise Tamper;
  let r = Codec.reader (Bytes.sub blob (String.length magic) 8) in
  let seq = Codec.get_u32 r in
  let cipher_len = Codec.get_u32 r in
  if cipher_len <> signed_len - hdr_len then raise Tamper;
  (* Freshness: a valid-but-stale blob is a rollback attack, not noise. *)
  if seq < expect_at_least then raise (Rollback { got = seq; expected = expect_at_least });
  let enc = Sbt_crypto.Kdf.enc_key ~master:device_key ~label in
  let cipher = Bytes.sub blob hdr_len cipher_len in
  let plaintext = Sbt_crypto.Ctr.xcrypt_bytes ~key:enc ~nonce:(nonce_of_seq seq) cipher in
  (seq, plaintext)
