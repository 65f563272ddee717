type t = { key : Aes.key; nonce : int64 }

let create ~key ~nonce = { key = Aes.expand_key key; nonce }
let of_key key ~nonce = { key; nonce }

(* One pass over the counter blocks covering [pos, pos + len).  Counter
   block layout: 8-byte big-endian nonce, 8-byte big-endian block index.
   A whole block's keystream is XORed straight into [buf]; a partial head
   or tail block is XORed in a zeroed copy and copied back. *)
let xcrypt t ~pos buf off len =
  if len < 0 || off < 0 || off + len > Bytes.length buf then invalid_arg "Ctr.xcrypt";
  let n0 = Int64.to_int (Int64.shift_right_logical t.nonce 32) land 0xFFFFFFFF in
  let n1 = Int64.to_int t.nonce land 0xFFFFFFFF and pos = Int64.to_int pos in
  let i = ref 0 in
  while !i < len do
    let b = (pos + !i) lsr 4 and k = (pos + !i) land 15 in
    let n = if k + len - !i < 16 then len - !i else 16 - k and o = off + !i in
    let b0 = (b lsr 32) land 0xFFFFFFFF and b1 = b land 0xFFFFFFFF in
    if n = 16 then Aes.xor_encrypt t.key n0 n1 b0 b1 buf o
    else begin
      let ks = Bytes.make 16 '\000' in
      Bytes.blit buf o ks k n;
      Aes.xor_encrypt t.key n0 n1 b0 b1 ks 0;
      Bytes.blit ks k buf o n
    end;
    i := !i + n
  done

let xcrypt_bytes ~key ~nonce src =
  let t = create ~key ~nonce in
  let dst = Bytes.copy src in
  xcrypt t ~pos:0L dst 0 (Bytes.length dst);
  dst
