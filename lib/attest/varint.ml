(* LEB128 over the int's 63 bits, read as unsigned.  A zigzag value always
   fits there: its 64-bit form has a zero top bit, so the bytes are those
   of the Int64 encoding. *)
let write_bits buf v =
  let v = ref v in
  while !v lsr 7 <> 0 do
    Buffer.add_char buf (Char.unsafe_chr (!v land 0x7F lor 0x80));
    v := !v lsr 7
  done;
  Buffer.add_char buf (Char.unsafe_chr !v)

(* Nine bytes carry 63 bits; a tenth is malformed. *)
let read_bits data pos =
  let v = ref 0 and shift = ref 0 and i = ref !pos and more = ref true in
  while !more do
    if !i >= Bytes.length data then invalid_arg "Varint: truncated";
    if !shift > 56 then invalid_arg "Varint: longer than 9 bytes";
    let b = Char.code (Bytes.unsafe_get data !i) in
    v := !v lor ((b land 0x7F) lsl !shift);
    shift := !shift + 7;
    incr i;
    more := b land 0x80 <> 0
  done;
  pos := !i;
  !v

let write_unsigned buf v =
  if v < 0 then invalid_arg "Varint.write_unsigned: negative";
  write_bits buf v

let read_unsigned data pos =
  let v = read_bits data pos in
  if v < 0 then invalid_arg "Varint.read_unsigned: out of range";
  v

let write_signed buf v = write_bits buf ((v lsl 1) lxor (v asr 62))

let read_signed data pos =
  let z = read_bits data pos in
  (z lsr 1) lxor -(z land 1)
