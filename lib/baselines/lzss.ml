(* Token stream: a flag byte precedes each group of 8 tokens; bit i set
   means token i is a (distance, length) match, clear means a literal.
   Matches are 3 bytes: 12-bit distance, 4-bit length-3, packed
   big-endian-ish.  The token stream is then Huffman-coded as a whole. *)

let window_size = 4096
let min_match = 3
let max_match = 18

let compress input =
  let n = Bytes.length input in
  let out = Buffer.create (n / 2) in
  Sbt_attest.Varint.write_unsigned out n;
  let tokens = Buffer.create n in
  (* Hash chains over 3-byte prefixes for match finding. *)
  let head = Array.make 16384 (-1) in
  let prev = Array.make (max n 1) (-1) in
  let hash3 i =
    (Char.code (Bytes.unsafe_get input i) lsl 6)
    lxor (Char.code (Bytes.unsafe_get input (i + 1)) lsl 3)
    lxor Char.code (Bytes.unsafe_get input (i + 2))
    land 16383
  in
  let insert i =
    if i + min_match <= n then begin
      let h = hash3 i in
      prev.(i) <- head.(h);
      head.(h) <- i
    end
  in
  let find_match i =
    if i + min_match > n then None
    else begin
      let best_len = ref 0 and best_pos = ref (-1) in
      let candidate = ref head.(hash3 i) in
      let tries = ref 16 in
      while !candidate >= 0 && !tries > 0 do
        let c = !candidate in
        if i - c <= window_size && c < i then begin
          let len = ref 0 in
          let limit = min max_match (n - i) in
          while !len < limit && Bytes.get input (c + !len) = Bytes.get input (i + !len) do
            incr len
          done;
          if !len > !best_len then begin
            best_len := !len;
            best_pos := c
          end
        end;
        candidate := prev.(c);
        decr tries
      done;
      if !best_len >= min_match then Some (i - !best_pos, !best_len) else None
    end
  in
  let flags = ref 0 and flag_count = ref 0 in
  let group = Buffer.create 24 in
  let flush_group () =
    if !flag_count > 0 then begin
      Buffer.add_char tokens (Char.unsafe_chr !flags);
      Buffer.add_buffer tokens group;
      Buffer.clear group;
      flags := 0;
      flag_count := 0
    end
  in
  let i = ref 0 in
  while !i < n do
    (match find_match !i with
    | Some (dist, len) ->
        flags := !flags lor (1 lsl !flag_count);
        Buffer.add_char group (Char.unsafe_chr (dist land 0xFF));
        Buffer.add_char group (Char.unsafe_chr (((dist lsr 8) lsl 4) lor (len - min_match)));
        for j = !i to min (n - 1) (!i + len - 1) do
          insert j
        done;
        i := !i + len
    | None ->
        Buffer.add_char group (Bytes.get input !i);
        insert !i;
        incr i);
    incr flag_count;
    if !flag_count = 8 then flush_group ()
  done;
  flush_group ();
  (* Huffman over the token stream: the deflate-style entropy stage. *)
  Buffer.add_bytes out (Sbt_attest.Huffman.encode (Buffer.to_bytes tokens));
  Buffer.to_bytes out

let decompress data =
  let pos = ref 0 in
  let n = Sbt_attest.Varint.read_unsigned data pos in
  let tokens = Sbt_attest.Huffman.decode (Bytes.sub data !pos (Bytes.length data - !pos)) in
  let out = Buffer.create n in
  let tn = Bytes.length tokens in
  let i = ref 0 in
  while Buffer.length out < n && !i < tn do
    let flags = Char.code (Bytes.get tokens !i) in
    incr i;
    let k = ref 0 in
    while !k < 8 && Buffer.length out < n && !i < tn do
      if (flags lsr !k) land 1 = 1 then begin
        let b0 = Char.code (Bytes.get tokens !i) in
        let b1 = Char.code (Bytes.get tokens (!i + 1)) in
        i := !i + 2;
        let dist = b0 lor ((b1 lsr 4) lsl 8) in
        let len = (b1 land 0xF) + min_match in
        let start = Buffer.length out - dist in
        if start < 0 then invalid_arg "Lzss.decompress: bad distance";
        for j = 0 to len - 1 do
          Buffer.add_char out (Buffer.nth out (start + j))
        done
      end
      else begin
        Buffer.add_char out (Bytes.get tokens !i);
        incr i
      end;
      incr k
    done
  done;
  if Buffer.length out <> n then invalid_arg "Lzss.decompress: truncated stream";
  Buffer.to_bytes out

let ratio input =
  if Bytes.length input = 0 then 1.0
  else float_of_int (Bytes.length input) /. float_of_int (Bytes.length (compress input))
