(* Tests for the from-scratch crypto substrate: AES-128 against FIPS-197
   vectors and a byte-wise reference cipher ([Aes_reference]), SHA-256
   against FIPS 180-4 vectors, HMAC against RFC 4231, CTR-mode algebraic
   properties, Poly1305 against RFC 8439 and a plain-number reference
   ([Poly1305_reference]), the AEAD built from them, and the PRNG against
   a boxed reference ([Rng_reference]). *)

module Aes = Sbt_crypto.Aes
module Ctr = Sbt_crypto.Ctr
module Sha256 = Sbt_crypto.Sha256
module Hmac = Sbt_crypto.Hmac
module Poly1305 = Sbt_crypto.Poly1305
module Aead = Sbt_crypto.Aead
module Rng = Sbt_crypto.Rng

let bytes_of_hex s =
  let n = String.length s / 2 in
  Bytes.init n (fun i -> Char.chr (int_of_string ("0x" ^ String.sub s (2 * i) 2)))

let hex_of b =
  String.concat "" (List.init (Bytes.length b) (fun i -> Printf.sprintf "%02x" (Char.code (Bytes.get b i))))

let check_hex = Alcotest.(check string)

(* --- AES -------------------------------------------------------------- *)

let test_aes_fips_vector () =
  (* FIPS-197 Appendix C.1. *)
  let key = Aes.expand_key (bytes_of_hex "000102030405060708090a0b0c0d0e0f") in
  let pt = bytes_of_hex "00112233445566778899aabbccddeeff" in
  let ct = Bytes.create 16 in
  Aes.encrypt_block key pt 0 ct 0;
  check_hex "ciphertext" "69c4e0d86a7b0430d8cdb78070b4c55a" (hex_of ct);
  let back = Bytes.create 16 in
  Aes_reference.decrypt_block (bytes_of_hex "000102030405060708090a0b0c0d0e0f") ct 0 back 0;
  check_hex "decrypted" (hex_of pt) (hex_of back)

let test_aes_appendix_b () =
  (* FIPS-197 Appendix B example. *)
  let key = Aes.expand_key (bytes_of_hex "2b7e151628aed2a6abf7158809cf4f3c") in
  let pt = bytes_of_hex "3243f6a8885a308d313198a2e0370734" in
  let ct = Bytes.create 16 in
  Aes.encrypt_block key pt 0 ct 0;
  check_hex "ciphertext" "3925841d02dc09fbdc118597196a0b32" (hex_of ct)

(* The library has no inverse cipher; the reference's inverts its output. *)
let test_aes_offset_io () =
  let raw = Bytes.make 16 'k' in
  let buf = Bytes.make 48 '\000' in
  Bytes.blit (Bytes.of_string "0123456789abcdef") 0 buf 16 16;
  Aes.encrypt_block (Aes.expand_key raw) buf 16 buf 16;
  let out = Bytes.create 16 in
  Aes_reference.decrypt_block raw buf 16 out 0;
  Alcotest.(check string) "in-place at offset" "0123456789abcdef" (Bytes.to_string out)

let test_aes_bad_key () =
  Alcotest.check_raises "short key" (Invalid_argument "Aes.expand_key: key must be 16 bytes")
    (fun () -> ignore (Aes.expand_key (Bytes.create 8)))

let block16 = QCheck.string_of_size (QCheck.Gen.return 16)

let prop_aes_roundtrip =
  QCheck.Test.make ~name:"aes encrypt/decrypt roundtrip" ~count:200 (QCheck.pair block16 block16)
    (fun (k, p) ->
      let raw = Bytes.of_string k in
      let ct = Bytes.create 16 in
      Aes.encrypt_block (Aes.expand_key raw) (Bytes.of_string p) 0 ct 0;
      let back = Bytes.create 16 in
      Aes_reference.decrypt_block raw ct 0 back 0;
      Bytes.to_string back = p)

(* In place at an offset inside a larger buffer, against the reference
   computed out of place. *)
let prop_aes_matches_reference =
  QCheck.Test.make ~name:"t-table equals byte-wise reference" ~count:500
    (QCheck.triple block16 block16 (QCheck.int_bound 16))
    (fun (k, p, off) ->
      let key = Bytes.of_string k in
      let expected = Bytes.create 16 in
      Aes_reference.encrypt_block key (Bytes.of_string p) 0 expected 0;
      let buf = Bytes.make 48 '\xa5' in
      Bytes.blit_string p 0 buf off 16;
      Aes.encrypt_block (Aes.expand_key key) buf off buf off;
      Bytes.equal (Bytes.sub buf off 16) expected
      && Bytes.for_all (( = ) '\xa5') (Bytes.sub buf 0 off)
      && Bytes.for_all (( = ) '\xa5') (Bytes.sub buf (off + 16) (32 - off)))

(* --- CTR -------------------------------------------------------------- *)

let test_ctr_roundtrip () =
  let key = Bytes.of_string "0123456789abcdef" in
  let msg = Bytes.of_string "counter mode over an odd-length message!" in
  let ct = Ctr.xcrypt_bytes ~key ~nonce:7L msg in
  Alcotest.(check bool) "ciphertext differs" false (Bytes.equal ct msg);
  let back = Ctr.xcrypt_bytes ~key ~nonce:7L ct in
  Alcotest.(check string) "roundtrip" (Bytes.to_string msg) (Bytes.to_string back)

let test_ctr_position_independence () =
  (* Decrypting a slice with its absolute position must match decrypting
     the whole stream: batches are processed out of order. *)
  let key = Bytes.of_string "0123456789abcdef" in
  let msg = Bytes.init 100 (fun i -> Char.chr (i land 0xFF)) in
  let whole = Bytes.copy msg in
  let t = Ctr.create ~key ~nonce:3L in
  Ctr.xcrypt t ~pos:0L whole 0 100;
  (* now decrypt bytes [37, 70) independently *)
  let slice = Bytes.sub whole 37 33 in
  let t2 = Ctr.create ~key ~nonce:3L in
  Ctr.xcrypt t2 ~pos:37L slice 0 33;
  Alcotest.(check string) "slice matches" (Bytes.to_string (Bytes.sub msg 37 33)) (Bytes.to_string slice)

let test_ctr_different_nonce_differs () =
  let key = Bytes.of_string "0123456789abcdef" in
  let msg = Bytes.make 32 'x' in
  let a = Ctr.xcrypt_bytes ~key ~nonce:1L msg in
  let b = Ctr.xcrypt_bytes ~key ~nonce:2L msg in
  Alcotest.(check bool) "nonces separate streams" false (Bytes.equal a b)

let prop_ctr_roundtrip =
  QCheck.Test.make ~name:"ctr roundtrip any length" ~count:200 QCheck.string (fun s ->
      let key = Bytes.of_string "0123456789abcdef" in
      let ct = Ctr.xcrypt_bytes ~key ~nonce:99L (Bytes.of_string s) in
      Bytes.to_string (Ctr.xcrypt_bytes ~key ~nonce:99L ct) = s)

(* A random stream position (0-100) and length, at a random buffer
   offset, so partial head and tail blocks and unaligned words are all
   covered; bytes outside the range must stay untouched. *)
let prop_ctr_matches_reference =
  QCheck.Test.make ~name:"ctr equals byte-wise reference" ~count:300
    QCheck.(quad block16 int64 (pair (int_bound 100) (int_bound 7)) (string_of_size Gen.(0 -- 300)))
    (fun (k, nonce, (pos, off), msg) ->
      let key = Bytes.of_string k and len = String.length msg in
      let buf = Bytes.make (off + len + 8) '\x5a' in
      Bytes.blit_string msg 0 buf off len;
      let expected = Bytes.copy buf in
      Aes_reference.ctr_xcrypt ~key ~nonce ~pos expected off len;
      Ctr.xcrypt (Ctr.create ~key ~nonce) ~pos:(Int64.of_int pos) buf off len;
      Bytes.equal buf expected)

(* The fused keystream path at block counters just below 2^32, so the
   low counter word wraps inside the range and the high word steps. *)
let prop_ctr_crosses_2_32 =
  QCheck.Test.make ~name:"ctr equals byte-wise reference across 2^32 blocks" ~count:200
    QCheck.(quad block16 int64 (pair (int_bound 100) (int_bound 7)) (string_of_size Gen.(0 -- 300)))
    (fun (k, nonce, (back, off), msg) ->
      let key = Bytes.of_string k and len = String.length msg in
      let pos = (1 lsl 36) - back in
      let buf = Bytes.make (off + len + 8) '\x5a' in
      Bytes.blit_string msg 0 buf off len;
      let expected = Bytes.copy buf in
      Aes_reference.ctr_xcrypt ~key ~nonce ~pos expected off len;
      Ctr.xcrypt (Ctr.create ~key ~nonce) ~pos:(Int64.of_int pos) buf off len;
      Bytes.equal buf expected)

(* --- SHA-256 ----------------------------------------------------------- *)

let test_sha256_vectors () =
  check_hex "empty" "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Sha256.digest_hex (Bytes.create 0));
  check_hex "abc" "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Sha256.digest_hex (Bytes.of_string "abc"));
  check_hex "two blocks"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (Sha256.digest_hex (Bytes.of_string "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))

let test_sha256_million_a () =
  let ctx = Sha256.init () in
  let chunk = Bytes.make 1000 'a' in
  for _ = 1 to 1000 do
    Sha256.update ctx chunk 0 1000
  done;
  check_hex "million a" "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (hex_of (Sha256.finalize ctx))

let test_sha256_incremental_equals_oneshot () =
  let data = Bytes.init 300 (fun i -> Char.chr ((i * 7) land 0xFF)) in
  let ctx = Sha256.init () in
  Sha256.update ctx data 0 100;
  Sha256.update ctx data 100 1;
  Sha256.update ctx data 101 199;
  check_hex "incremental" (Sha256.digest_hex data) (hex_of (Sha256.finalize ctx))

(* Contexts hashed at the same time on two domains must not share
   scratch state: each domain hashes 1 MB ten times and every digest must
   match the sequential one. *)
let test_sha256_concurrent_contexts () =
  let data = Bytes.init 1_000_000 (fun i -> Char.chr ((i * 31) land 0xFF)) in
  let expected = Sha256.digest data in
  let hash_ten () =
    List.init 10 (fun _ -> Sha256.digest data)
    |> List.filter (fun d -> not (Bytes.equal d expected))
    |> List.length
  in
  let other = Domain.spawn hash_ten in
  let here = hash_ten () in
  Alcotest.(check int) "wrong digests" 0 (here + Domain.join other)

let prop_sha256_length_invariance =
  QCheck.Test.make ~name:"sha256 split invariance" ~count:100
    (QCheck.pair QCheck.string QCheck.small_nat) (fun (s, k) ->
      let b = Bytes.of_string s in
      let n = Bytes.length b in
      let split = if n = 0 then 0 else k mod (n + 1) in
      let ctx = Sha256.init () in
      Sha256.update ctx b 0 split;
      Sha256.update ctx b split (n - split);
      Bytes.equal (Sha256.finalize ctx) (Sha256.digest b))

(* --- HMAC -------------------------------------------------------------- *)

let test_hmac_rfc4231 () =
  (* RFC 4231 test cases 1 and 2. *)
  let tag1 = Hmac.mac ~key:(Bytes.make 20 '\x0b') (Bytes.of_string "Hi There") in
  check_hex "case 1" "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7" (hex_of tag1);
  let tag2 = Hmac.mac ~key:(Bytes.of_string "Jefe") (Bytes.of_string "what do ya want for nothing?") in
  check_hex "case 2" "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843" (hex_of tag2)

let test_hmac_long_key () =
  (* Keys longer than the block size are hashed first (RFC 4231 case 6). *)
  let tag =
    Hmac.mac ~key:(Bytes.make 131 '\xaa') (Bytes.of_string "Test Using Larger Than Block-Size Key - Hash Key First")
  in
  check_hex "case 6" "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54" (hex_of tag)

let test_hmac_verify () =
  let key = Bytes.of_string "k" in
  let msg = Bytes.of_string "message" in
  let tag = Hmac.mac ~key msg in
  Alcotest.(check bool) "accepts valid" true (Hmac.verify ~key ~tag msg);
  let bad = Bytes.copy tag in
  Bytes.set bad 5 (Char.chr (Char.code (Bytes.get bad 5) lxor 1));
  Alcotest.(check bool) "rejects flipped bit" false (Hmac.verify ~key ~tag:bad msg);
  Alcotest.(check bool) "rejects short tag" false (Hmac.verify ~key ~tag:(Bytes.create 4) msg)

(* --- Poly1305 and the AEAD ------------------------------------------------ *)

let ietf =
  "Any submission to the IETF intended by the Contributor for publication as all or part of an \
   IETF Internet-Draft or RFC and any statement made within the context of an IETF activity is \
   considered an \"IETF Contribution\". Such statements include oral statements in IETF \
   sessions, as well as written and electronic communications made at any time or place, which \
   are addressed to"

let jabberwocky =
  "'Twas brillig, and the slithy toves\nDid gyre and gimble in the wabe:\nAll mimsy were the \
   borogoves,\nAnd the mome raths outgrabe."

(* RFC 8439 §2.5.2 and Appendix A.3 (vectors 1-11): (key, message, tag). *)
let poly1305_vectors =
  (* [rep n b]: the hex byte [b] n times. *)
  let rep n b = String.concat "" (List.init n (fun _ -> b)) in
  let z n = rep n "00" and r1 = "01" ^ rep 15 "00" and r2 = "02" ^ rep 15 "00" in
  let r10 = "01000000000000000400000000000000" and hex = bytes_of_hex in
  [
    ( "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b",
      Bytes.of_string "Cryptographic Forum Research Group",
      "a8061dc1305136c6c22b8baf0c0127a9" );
    (z 32, Bytes.make 64 '\000', z 16);
    (z 16 ^ "36e5f6b5c5e06070f0efca96227a863e", Bytes.of_string ietf, "36e5f6b5c5e06070f0efca96227a863e");
    ("36e5f6b5c5e06070f0efca96227a863e" ^ z 16, Bytes.of_string ietf, "f3477e7cd95417af89a6b8794c310cf0");
    ( "1c9240a5eb55d38af333888604f6b5f0473917c1402b80099dca5cbc207075c0",
      Bytes.of_string jabberwocky,
      "4541669a7eaaee61e708dc7cbcc5eb62" );
    (r2 ^ z 16, hex (rep 16 "ff"), "03" ^ z 15);
    (r2 ^ rep 16 "ff", hex ("02" ^ z 15), "03" ^ z 15);
    (r1 ^ z 16, hex (rep 16 "ff" ^ "f0" ^ rep 15 "ff" ^ "11" ^ z 15), "05" ^ z 15);
    (r1 ^ z 16, hex (rep 16 "ff" ^ "fb" ^ rep 15 "fe" ^ rep 16 "01"), z 16);
    (r2 ^ z 16, hex ("fd" ^ rep 15 "ff"), "fa" ^ rep 15 "ff");
    ( r10 ^ z 16,
      hex ("e33594d7505e43b9" ^ z 8 ^ "3394d7505e4379cd" ^ "01" ^ z 7 ^ z 16 ^ "01" ^ z 15),
      "14000000000000005500000000000000" );
    (r10 ^ z 16, hex ("e33594d7505e43b9" ^ z 8 ^ "3394d7505e4379cd" ^ "01" ^ z 7 ^ z 16), "13" ^ z 15);
  ]

(* Every vector pins the reference.  Those with s = 0 and whole blocks
   (A.3 #1, #5 and #7-#11; all but #1 are carry and reduction edge
   cases) are the zero-padded hash itself, so they pin [pad16] and
   [finish] directly. *)
let test_poly1305_rfc8439 () =
  let direct =
    List.filteri
      (fun i (key, msg, tag) ->
        let key = bytes_of_hex key in
        check_hex (Printf.sprintf "reference %d" i) tag (hex_of (Poly1305_reference.mac ~key msg));
        let whole = Bytes.length msg mod 16 = 0 in
        let s_zero = Bytes.equal (Bytes.sub key 16 16) (Bytes.make 16 '\000') in
        if whole && s_zero then begin
          let st = Poly1305.init (Poly1305.key key 0) in
          Poly1305.pad16 st msg 0 (Bytes.length msg);
          check_hex (Printf.sprintf "vector %d" i) tag (hex_of (Poly1305.finish st))
        end;
        whole && s_zero)
      poly1305_vectors
  in
  Alcotest.(check int) "vectors hashed directly" 7 (List.length direct)

(* Random r, lengths 0-300 (half of them within one byte of a 16-byte
   boundary) at an offset into a larger buffer: [pad16] then [finish]
   equals the reference's one-time MAC with s = 0 over the message
   zero-padded to whole blocks. *)
let prop_poly1305_matches_reference =
  let boundary = QCheck.Gen.(map2 (fun k d -> max 0 ((16 * k) + d)) (0 -- 18) (-1 -- 1)) in
  QCheck.Test.make ~name:"poly1305 equals plain-number reference" ~count:300
    QCheck.(
      triple block16 (int_bound 20) (string_of_size Gen.(oneof [ 0 -- 300; boundary ])))
    (fun (r, off, m) ->
      let len = String.length m in
      let buf = Bytes.make (off + len + 5) '\x5a' in
      Bytes.blit_string m 0 buf off len;
      let padded = Bytes.make ((len + 15) / 16 * 16) '\000' in
      Bytes.blit_string m 0 padded 0 len;
      let st = Poly1305.init (Poly1305.key (Bytes.of_string r) 0) in
      Poly1305.pad16 st buf off len;
      let key = Bytes.cat (Bytes.of_string r) (Bytes.make 16 '\000') in
      Bytes.equal (Poly1305.finish st) (Poly1305_reference.mac ~key padded))

(* The tag is AES_kt of the Poly1305_r hash (s = 0) of RFC 8439's MAC
   data, with (r, kt) from [Kdf] under "aead-tag": checked against the
   reference and the byte-wise AES, so the construction itself is pinned.
   The cipher bytes are plain CTR's. *)
let prop_aead_construction =
  QCheck.Test.make ~name:"aead is ctr plus enciphered poly1305 of the mac data" ~count:100
    QCheck.(quad block16 int64 (string_of_size Gen.(0 -- 40)) (string_of_size Gen.(0 -- 300)))
    (fun (k, nonce, a, m) ->
      let key = Bytes.of_string k and ad = Bytes.of_string a and buf = Bytes.of_string m in
      let tag = Aead.seal (Aead.of_key key) ~nonce ~pos:0L ~ad buf 0 (Bytes.length buf) in
      let d = Sbt_crypto.Kdf.derive ~master:key ~label:"aead-tag" 32 in
      let pad b =
        let p = Bytes.make ((Bytes.length b + 15) / 16 * 16) '\000' in
        Bytes.blit b 0 p 0 (Bytes.length b);
        p
      in
      let lens = Bytes.create 16 in
      Bytes.set_int64_le lens 0 (Int64.of_int (Bytes.length ad));
      Bytes.set_int64_le lens 8 (Int64.of_int (Bytes.length buf));
      let data = Bytes.concat Bytes.empty [ pad ad; pad buf; lens ] in
      let h = Poly1305_reference.mac ~key:(Bytes.cat (Bytes.sub d 0 16) (Bytes.make 16 '\000')) data in
      let expected = Bytes.create 16 in
      Aes_reference.encrypt_block (Bytes.sub d 16 16) h 0 expected 0;
      Bytes.equal tag expected && Bytes.equal buf (Ctr.xcrypt_bytes ~key ~nonce (Bytes.of_string m)))

let test_aead_rejects () =
  let k = Aead.of_key (Bytes.of_string "0123456789abcdef") in
  let ad = Aead.ad 'F' [ 1; 2; 3 ] and msg = Bytes.of_string "sixteen byte msg and some more" in
  let n = Bytes.length msg in
  let buf = Bytes.copy msg in
  let tag = Aead.seal k ~nonce:5L ~pos:64L ~ad buf 0 n in
  let verifies ?(ad = ad) ?(tag = tag) c = Aead.verify k ~ad ~tag c 0 n in
  Alcotest.(check bool) "verifies" true (verifies buf);
  let flipped = Bytes.copy buf in
  Bytes.set flipped 7 (Char.chr (Char.code (Bytes.get flipped 7) lxor 1));
  Alcotest.(check bool) "flipped byte" false (verifies flipped);
  Alcotest.(check bool) "other ad" false (verifies ~ad:(Aead.ad 'F' [ 1; 2; 4 ]) buf);
  Alcotest.(check bool) "other domain" false (verifies ~ad:(Aead.ad 'R' [ 1; 2; 3 ]) buf);
  Alcotest.(check bool) "empty tag" false (verifies ~tag:Bytes.empty buf);
  Alcotest.(check bool) "short tag" false (verifies ~tag:(Bytes.sub tag 0 15) buf);
  Aead.xcrypt k ~nonce:5L ~pos:64L buf 0 n;
  Alcotest.(check string) "decrypts" (Bytes.to_string msg) (Bytes.to_string buf)

(* --- RNG --------------------------------------------------------------- *)

let test_rng_determinism () =
  let a = Rng.create ~seed:1L and b = Rng.create ~seed:1L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done;
  let c = Rng.create ~seed:2L in
  Alcotest.(check bool) "different seed differs" false
    (Int64.equal (Rng.next_int64 (Rng.create ~seed:1L)) (Rng.next_int64 c))

let test_rng_int_below_bounds () =
  let rng = Rng.create ~seed:5L in
  for _ = 1 to 10_000 do
    let v = Rng.int_below rng 17 in
    if v < 0 || v >= 17 then Alcotest.fail "int_below out of range"
  done

let test_rng_uniformity () =
  let rng = Rng.create ~seed:9L in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let i = Rng.int_below rng 10 in
    buckets.(i) <- buckets.(i) + 1
  done;
  Array.iter
    (fun c ->
      let expected = n / 10 in
      if abs (c - expected) > expected / 10 then
        Alcotest.failf "bucket count %d too far from %d" c expected)
    buckets

let test_rng_float_unit () =
  let rng = Rng.create ~seed:3L in
  for _ = 1 to 10_000 do
    let f = Rng.float_unit rng in
    if f < 0.0 || f >= 1.0 then Alcotest.fail "float_unit out of range"
  done

(* Every draw kind against the boxed reference ([Rng_reference]), with
   [int_below] at 1, at small bounds and above 2^61, where up to half of
   all raw draws are rejected.  After each draw both states must agree,
   and a generator restored mid-stream from [Rng.state] must continue the
   same stream (the data plane's sealed checkpoint relies on it). *)
type draw = Next | Float | Int32 | Below of int

let gen_draw =
  QCheck.Gen.(
    frequency
      [
        (2, return Next);
        (1, return Float);
        (1, return Int32);
        (1, return (Below 1));
        (2, map (fun n -> Below n) (1 -- 1000));
        (2, map (fun x -> Below (max_int - 1 - (x land ((1 lsl 61) - 1)))) int);
      ])

let lib_draw t = function
  | Next -> Rng.next_int64 t
  | Float -> Int64.bits_of_float (Rng.float_unit t)
  | Int32 -> Int64.of_int32 (Rng.int32_any t)
  | Below n -> Int64.of_int (Rng.int_below t n)

let ref_draw r = function
  | Next -> Rng_reference.next_int64 r
  | Float -> Int64.bits_of_float (Rng_reference.float_unit r)
  | Int32 -> Int64.of_int32 (Rng_reference.int32_any r)
  | Below n -> Int64.of_int (Rng_reference.int_below r n)

let prop_rng_matches_reference =
  QCheck.Test.make ~name:"rng draws equal the boxed reference" ~count:300
    QCheck.(triple int64 (make Gen.(list_size (1 -- 200) gen_draw)) small_nat)
    (fun (seed, draws, cut) ->
      let t = Rng.create ~seed and r = Rng_reference.create ~seed in
      let restored = Rng.create ~seed:0L and cut = cut mod (List.length draws + 1) in
      let ok = ref true in
      List.iteri
        (fun i d ->
          if i = cut then Rng.set_state restored (Rng.state t);
          let want = ref_draw r d in
          ok :=
            !ok
            && Int64.equal (lib_draw t d) want
            && (i < cut || Int64.equal (lib_draw restored d) want)
            && Rng.state t = Rng_reference.state r)
        draws;
      !ok)

let test_rng_rejection_fires () =
  let n = (1 lsl 61) + 1 in
  let t = Rng.create ~seed:3L and r = Rng_reference.create ~seed:3L in
  for _ = 1 to 1_000 do
    Alcotest.(check int) "same value" (Rng_reference.int_below r n) (Rng.int_below t n)
  done;
  Alcotest.(check bool) "some draws rejected" true (r.Rng_reference.draws > 1_100);
  Alcotest.(check bool) "same state" true (Rng.state t = Rng_reference.state r)

(* At n = max_int the acceptance limit clamps to 0: a draw r is kept when
   r < n, which all but one of the 2^62 raw values are. *)
let test_rng_below_max_int () =
  let t = Rng.create ~seed:9L in
  for _ = 1 to 1_000 do
    let v = Rng.int_below t max_int in
    if v < 0 || v >= max_int then Alcotest.failf "int_below max_int gave %d" v
  done

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "crypto"
    [
      ( "aes",
        [
          Alcotest.test_case "fips c.1 vector" `Quick test_aes_fips_vector;
          Alcotest.test_case "fips appendix b" `Quick test_aes_appendix_b;
          Alcotest.test_case "offset io" `Quick test_aes_offset_io;
          Alcotest.test_case "bad key rejected" `Quick test_aes_bad_key;
          q prop_aes_roundtrip;
          q prop_aes_matches_reference;
        ] );
      ( "ctr",
        [
          Alcotest.test_case "roundtrip" `Quick test_ctr_roundtrip;
          Alcotest.test_case "position independence" `Quick test_ctr_position_independence;
          Alcotest.test_case "nonce separation" `Quick test_ctr_different_nonce_differs;
          q prop_ctr_roundtrip;
          q prop_ctr_matches_reference;
          q prop_ctr_crosses_2_32;
        ] );
      ( "sha256",
        [
          Alcotest.test_case "fips vectors" `Quick test_sha256_vectors;
          Alcotest.test_case "million a" `Slow test_sha256_million_a;
          Alcotest.test_case "incremental" `Quick test_sha256_incremental_equals_oneshot;
          Alcotest.test_case "concurrent contexts" `Quick test_sha256_concurrent_contexts;
          q prop_sha256_length_invariance;
        ] );
      ( "hmac",
        [
          Alcotest.test_case "rfc4231 vectors" `Quick test_hmac_rfc4231;
          Alcotest.test_case "long key" `Quick test_hmac_long_key;
          Alcotest.test_case "verify" `Quick test_hmac_verify;
        ] );
      ( "poly1305",
        [
          Alcotest.test_case "rfc8439 vectors" `Quick test_poly1305_rfc8439;
          q prop_poly1305_matches_reference;
        ] );
      ( "aead",
        [ Alcotest.test_case "rejects" `Quick test_aead_rejects; q prop_aead_construction ] );
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "int_below bounds" `Quick test_rng_int_below_bounds;
          Alcotest.test_case "uniformity" `Quick test_rng_uniformity;
          Alcotest.test_case "float_unit range" `Quick test_rng_float_unit;
          Alcotest.test_case "int_below rejection fires" `Quick test_rng_rejection_fires;
          Alcotest.test_case "int_below max_int returns" `Quick test_rng_below_max_int;
          q prop_rng_matches_reference;
        ] );
    ]
