type t = { key : Aes.key; nonce : int64 }

let create ~key ~nonce = { key = Aes.expand_key key; nonce }

(* XOR [n] keystream bytes from [ks + koff] into [buf + off]. *)
let xor_bytes buf off ks koff n =
  for j = 0 to n - 1 do
    let c = Char.code (Bytes.get buf (off + j)) lxor Char.code (Bytes.get ks (koff + j)) in
    Bytes.set buf (off + j) (Char.unsafe_chr c)
  done

let xor_word buf off ks koff =
  Bytes.set_int32_ne buf off
    (Int32.logxor (Bytes.get_int32_ne buf off) (Bytes.get_int32_ne ks koff))

(* One pass over the counter blocks covering [pos, pos + len): each
   keystream block is computed once and XORed in whole 32-bit words; only
   a partial head or tail block goes byte by byte.  Counter block layout:
   8-byte big-endian nonce, 8-byte big-endian block index. *)
let xcrypt t ~pos buf off len =
  if len < 0 || off < 0 || off + len > Bytes.length buf then invalid_arg "Ctr.xcrypt";
  let ctr = Bytes.create 16 and ks = Bytes.create 16 in
  Bytes.set_int64_be ctr 0 t.nonce;
  let block = ref (Int64.to_int (Int64.shift_right pos 4)) in
  let next_keystream () =
    Bytes.set_int64_be ctr 8 (Int64.of_int !block);
    Aes.encrypt_block t.key ctr 0 ks 0;
    incr block
  in
  let head = Int64.to_int pos land 15 in
  let done_ = ref 0 in
  if head > 0 && len > 0 then begin
    next_keystream ();
    let n = min (16 - head) len in
    xor_bytes buf off ks head n;
    done_ := n
  end;
  while len - !done_ >= 16 do
    next_keystream ();
    let o = off + !done_ in
    xor_word buf o ks 0;
    xor_word buf (o + 4) ks 4;
    xor_word buf (o + 8) ks 8;
    xor_word buf (o + 12) ks 12;
    done_ := !done_ + 16
  done;
  if !done_ < len then begin
    next_keystream ();
    xor_bytes buf (off + !done_) ks 0 (len - !done_)
  end

let xcrypt_bytes ~key ~nonce src =
  let t = create ~key ~nonce in
  let dst = Bytes.copy src in
  xcrypt t ~pos:0L dst 0 (Bytes.length dst);
  dst
