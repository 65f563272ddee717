(* Canonical Huffman over bytes.  A block is the symbol count (varint), a
   code-length table, then the codes packed most significant bit first.
   The table is sparse, a distinct-symbol count below 128 followed by
   (symbol, length) pairs in symbol order, or 0xFF and 256 length bytes.

   Past the one 256-entry count, encode and decode work over the present
   symbols only: an audit column uses a handful of byte values, and a
   batch encodes twelve columns, most of them a few bytes long. *)

let max_code_len = 62

(* A binary min-heap of node ids keyed by weight.  Its sift rules (a node
   moves only past a strictly heavier one) decide how equal weights
   break, so they fix every code, and with them the audit bytes. *)
type heap = { hw : int array; hid : int array; mutable size : int }

let swap h i j =
  let tw = h.hw.(i) and tid = h.hid.(i) in
  h.hw.(i) <- h.hw.(j);
  h.hid.(i) <- h.hid.(j);
  h.hw.(j) <- tw;
  h.hid.(j) <- tid

let push h weight id =
  let i = ref h.size in
  h.hw.(!i) <- weight;
  h.hid.(!i) <- id;
  h.size <- h.size + 1;
  while !i > 0 && h.hw.((!i - 1) / 2) > h.hw.(!i) do
    swap h ((!i - 1) / 2) !i;
    i := (!i - 1) / 2
  done

(* Drops the root, which the caller has read. *)
let pop h =
  h.size <- h.size - 1;
  h.hw.(0) <- h.hw.(h.size);
  h.hid.(0) <- h.hid.(h.size);
  let i = ref 0 and sifting = ref true in
  while !sifting do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let m = ref !i in
    if l < h.size && h.hw.(l) < h.hw.(!m) then m := l;
    if r < h.size && h.hw.(r) < h.hw.(!m) then m := r;
    if !m = !i then sifting := false
    else begin
      swap h !i !m;
      i := !m
    end
  done

(* Code lengths for the weights [w] (at least two): merge the two
   lightest nodes until one is left.  Leaf i is node i and merge k makes
   node d + k, so a parent's id is above its children's and one backward
   pass turns parent links into depths. *)
let code_lengths w =
  let d = Array.length w in
  let h = { hw = Array.make d 0; hid = Array.make d 0; size = 0 } in
  for i = 0 to d - 1 do
    push h w.(i) i
  done;
  let link = Array.make ((2 * d) - 1) 0 in
  for node = d to (2 * d) - 2 do
    let wa = h.hw.(0) and a = h.hid.(0) in
    pop h;
    let wb = h.hw.(0) and b = h.hid.(0) in
    pop h;
    link.(a) <- node;
    link.(b) <- node;
    push h (wa + wb) node
  done;
  link.((2 * d) - 2) <- 0;
  for node = (2 * d) - 3 downto 0 do
    link.(node) <- link.(link.(node)) + 1
  done;
  Array.sub link 0 d

(* The first (smallest) code of each length, from the number of codes of
   each length.  Canonical codes give shorter lengths the smaller values
   and, within a length, consecutive values to symbols in increasing
   order. *)
let first_codes count =
  let first = Array.make (max_code_len + 1) 0 in
  for l = 1 to max_code_len do
    first.(l) <- (first.(l - 1) + count.(l - 1)) lsl 1
  done;
  first

let encode data =
  let n = Bytes.length data in
  let head = Buffer.create 16 in
  Varint.write_unsigned head n;
  if n = 0 then Buffer.to_bytes head
  else begin
    let freq = Array.make 256 0 in
    for i = 0 to n - 1 do
      let s = Char.code (Bytes.unsafe_get data i) in
      freq.(s) <- freq.(s) + 1
    done;
    (* The present symbols, in increasing order. *)
    let present = Bytes.create 256 and d = ref 0 in
    for s = 0 to 255 do
      if freq.(s) > 0 then begin
        Bytes.unsafe_set present !d (Char.unsafe_chr s);
        incr d
      end
    done;
    let d = !d in
    let sym i = Char.code (Bytes.unsafe_get present i) in
    (* One symbol still takes a 1-bit code. *)
    let lens = if d = 1 then [| 1 |] else code_lengths (Array.init d (fun i -> freq.(sym i))) in
    let count = Array.make (max_code_len + 1) 0 and bits = ref 0 in
    for i = 0 to d - 1 do
      if lens.(i) > max_code_len then invalid_arg "Huffman.encode: code past 62 bits";
      count.(lens.(i)) <- count.(lens.(i)) + 1;
      bits := !bits + (freq.(sym i) * lens.(i))
    done;
    let next = first_codes count in
    let codes = Array.make d 0 in
    for i = 0 to d - 1 do
      codes.(i) <- next.(lens.(i));
      next.(lens.(i)) <- codes.(i) + 1;
      (* [freq] becomes the symbol -> present-index map. *)
      freq.(sym i) <- i
    done;
    if d < 128 then begin
      Buffer.add_char head (Char.unsafe_chr d);
      for i = 0 to d - 1 do
        Buffer.add_char head (Char.unsafe_chr (sym i));
        Buffer.add_char head (Char.unsafe_chr lens.(i))
      done
    end
    else begin
      let table = Bytes.make 256 '\000' in
      for i = 0 to d - 1 do
        Bytes.set table (sym i) (Char.unsafe_chr lens.(i))
      done;
      Buffer.add_char head '\xFF';
      Buffer.add_bytes head table
    end;
    let h = Buffer.length head in
    let out = Bytes.create (h + ((!bits + 7) / 8)) in
    Buffer.blit head 0 out 0 h;
    (* Codes go out most significant bit first through [acc], where fewer
       than 8 bits wait between codes: a code of up to 55 bits joins them
       within 63, and a longer one goes in two parts. *)
    let acc = ref 0 and pending = ref 0 and pos = ref h in
    for j = 0 to n - 1 do
      let i = freq.(Char.code (Bytes.unsafe_get data j)) in
      let len = lens.(i) and code = codes.(i) in
      if len <= 55 then begin
        acc := (!acc lsl len) lor code;
        pending := !pending + len
      end
      else begin
        acc := (!acc lsl (len - 32)) lor (code lsr 32);
        pending := !pending + len - 32;
        while !pending >= 8 do
          pending := !pending - 8;
          Bytes.set out !pos (Char.unsafe_chr ((!acc lsr !pending) land 0xFF));
          incr pos
        done;
        acc := (!acc lsl 32) lor (code land 0xFFFF_FFFF);
        pending := !pending + 32
      end;
      while !pending >= 8 do
        pending := !pending - 8;
        Bytes.set out !pos (Char.unsafe_chr ((!acc lsr !pending) land 0xFF));
        incr pos
      done
    done;
    if !pending > 0 then Bytes.set out !pos (Char.unsafe_chr ((!acc lsl (8 - !pending)) land 0xFF));
    out
  end

let decode data =
  let len = Bytes.length data in
  let pos = ref 0 in
  let n = Varint.read_unsigned data pos in
  if n = 0 then Bytes.create 0
  else begin
    if len <= !pos then invalid_arg "Huffman.decode: truncated table";
    let marker = Char.code (Bytes.get data !pos) in
    let dense = marker = 0xFF in
    let table = !pos + 1 in
    pos := table + if dense then 256 else 2 * marker;
    if len < !pos then invalid_arg "Huffman.decode: truncated table";
    (* Every code takes at least one bit. *)
    if n > 8 * (len - !pos) then invalid_arg "Huffman.decode: truncated payload";
    let byte i = Char.code (Bytes.get data (table + i)) in
    (* [f symbol length] over the present symbols, in increasing order. *)
    let iter_present f =
      if dense then
        for s = 0 to 255 do
          if byte s > 0 then f s (byte s)
        done
      else
        for i = 0 to marker - 1 do
          f (byte (2 * i)) (byte ((2 * i) + 1))
        done
    in
    let count = Array.make (max_code_len + 1) 0 and d = ref 0 in
    iter_present (fun _ l ->
        if l = 0 || l > max_code_len then invalid_arg "Huffman.decode: bad table";
        count.(l) <- count.(l) + 1;
        incr d);
    let first = first_codes count in
    (* Symbols ordered by (length, symbol): the codes of length l, from
       [first.(l)] up, belong to [sorted.(offset.(l))] onwards. *)
    let offset = Array.make (max_code_len + 1) 0 in
    for l = 1 to max_code_len do
      offset.(l) <- offset.(l - 1) + count.(l - 1)
    done;
    let sorted = Array.make !d 0 and next = Array.copy offset in
    iter_present (fun s l ->
        sorted.(next.(l)) <- s;
        next.(l) <- next.(l) + 1);
    let out = Bytes.create n in
    let p = ref !pos and cur = ref 0 and left = ref 0 in
    for i = 0 to n - 1 do
      let code = ref 0 and l = ref 0 and sym = ref (-1) in
      while !sym < 0 do
        if !left = 0 then begin
          if !p >= len then invalid_arg "Huffman.decode: truncated payload";
          cur := Char.code (Bytes.unsafe_get data !p);
          incr p;
          left := 8
        end;
        decr left;
        code := (!code lsl 1) lor ((!cur lsr !left) land 1);
        incr l;
        if !l > max_code_len then invalid_arg "Huffman.decode: bad code";
        let k = !code - first.(!l) in
        if k >= 0 && k < count.(!l) then sym := sorted.(offset.(!l) + k)
      done;
      Bytes.unsafe_set out i (Char.unsafe_chr !sym)
    done;
    out
  end
