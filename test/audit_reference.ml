(* The audit codec written the plain way, kept as a test oracle for
   [Sbt_attest]'s [Varint], [Huffman] and [Columnar.compress]: Int64
   zigzag varints, a heap of (weight, node) tuples over 256-entry tables,
   a bit-by-bit writer, and a decoder that looks each (length, code)
   prefix up in a [Hashtbl].  Every step allocates; the point is that the
   library, which does none of this, writes exactly these bytes. *)

module Varint = struct
  let write_unsigned buf v =
    let v = ref v in
    let continue = ref true in
    while !continue do
      let low = Int64.to_int (Int64.logand !v 0x7FL) in
      v := Int64.shift_right_logical !v 7;
      if Int64.equal !v 0L then begin
        Buffer.add_char buf (Char.unsafe_chr low);
        continue := false
      end
      else Buffer.add_char buf (Char.unsafe_chr (low lor 0x80))
    done

  let read_unsigned data pos =
    let v = ref 0L and shift = ref 0 and continue = ref true in
    while !continue do
      if !pos >= Bytes.length data then invalid_arg "Varint.read_unsigned: truncated";
      let b = Char.code (Bytes.get data !pos) in
      incr pos;
      v := Int64.logor !v (Int64.shift_left (Int64.of_int (b land 0x7F)) !shift);
      shift := !shift + 7;
      if b land 0x80 = 0 then continue := false
    done;
    !v

  let zigzag v = Int64.logxor (Int64.shift_left v 1) (Int64.shift_right v 63)
  let unzigzag v = Int64.logxor (Int64.shift_right_logical v 1) (Int64.neg (Int64.logand v 1L))
  let write_signed buf v = write_unsigned buf (zigzag v)
  let read_signed data pos = unzigzag (read_unsigned data pos)
end

module Bitio = struct
  module Writer = struct
    type t = { buf : Buffer.t; mutable acc : int; mutable used : int; mutable bits : int }

    let create () = { buf = Buffer.create 256; acc = 0; used = 0; bits = 0 }

    let put_bit t b =
      t.acc <- (t.acc lsl 1) lor (b land 1);
      t.used <- t.used + 1;
      t.bits <- t.bits + 1;
      if t.used = 8 then begin
        Buffer.add_char t.buf (Char.unsafe_chr t.acc);
        t.acc <- 0;
        t.used <- 0
      end

    let put_bits t ~value ~bits =
      if bits < 0 || bits > 62 then invalid_arg "Bitio.put_bits";
      for i = bits - 1 downto 0 do
        put_bit t ((value lsr i) land 1)
      done

    let contents t =
      let b = Buffer.to_bytes t.buf in
      if t.used = 0 then b
      else begin
        let padded = t.acc lsl (8 - t.used) in
        let out = Bytes.create (Bytes.length b + 1) in
        Bytes.blit b 0 out 0 (Bytes.length b);
        Bytes.set out (Bytes.length b) (Char.unsafe_chr (padded land 0xFF));
        out
      end

    let bit_length t = t.bits
  end

  module Reader = struct
    type t = { data : bytes; mutable pos : int (* bit position *) }

    let create data = { data; pos = 0 }

    let get_bit t =
      let byte = t.pos lsr 3 in
      if byte >= Bytes.length t.data then raise End_of_file;
      let bit = 7 - (t.pos land 7) in
      t.pos <- t.pos + 1;
      (Char.code (Bytes.get t.data byte) lsr bit) land 1

    let get_bits t n =
      let v = ref 0 in
      for _ = 1 to n do
        v := (!v lsl 1) lor get_bit t
      done;
      !v

    let bits_remaining t = (8 * Bytes.length t.data) - t.pos
  end
end

module Huffman = struct
  (* Canonical Huffman: build code lengths with a simple two-queue-ish
     heap, assign canonical codes, serialize lengths + symbol count +
     payload bits. *)

  let max_symbols = 256

  (* Binary min-heap over (weight, node index). *)
  module Heap = struct
    type t = { mutable data : (int * int) array; mutable len : int }

    let create cap = { data = Array.make (max cap 1) (0, 0); len = 0 }

    let swap h i j =
      let t = h.data.(i) in
      h.data.(i) <- h.data.(j);
      h.data.(j) <- t

    let push h x =
      if h.len = Array.length h.data then begin
        let bigger = Array.make (2 * h.len) (0, 0) in
        Array.blit h.data 0 bigger 0 h.len;
        h.data <- bigger
      end;
      h.data.(h.len) <- x;
      let i = ref h.len in
      h.len <- h.len + 1;
      while !i > 0 && fst h.data.((!i - 1) / 2) > fst h.data.(!i) do
        swap h ((!i - 1) / 2) !i;
        i := (!i - 1) / 2
      done

    let pop h =
      let top = h.data.(0) in
      h.len <- h.len - 1;
      h.data.(0) <- h.data.(h.len);
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < h.len && fst h.data.(l) < fst h.data.(!smallest) then smallest := l;
        if r < h.len && fst h.data.(r) < fst h.data.(!smallest) then smallest := r;
        if !smallest = !i then continue := false
        else begin
          swap h !i !smallest;
          i := !smallest
        end
      done;
      top

    let size h = h.len
  end

  (* Compute code lengths via Huffman tree; cap depth by construction is not
     needed for our block sizes (lengths stay < 64 for any input < 2^64). *)
  let code_lengths freqs =
    let parent = Array.make (2 * max_symbols) (-1) in
    let heap = Heap.create 64 in
    let node_count = ref max_symbols in
    Array.iteri (fun s f -> if f > 0 then Heap.push heap (f, s)) freqs;
    if Heap.size heap = 1 then begin
      (* Single-symbol block: give it a 1-bit code. *)
      let _, s = Heap.pop heap in
      let lengths = Array.make max_symbols 0 in
      lengths.(s) <- 1;
      lengths
    end
    else begin
      while Heap.size heap > 1 do
        let fa, a = Heap.pop heap in
        let fb, b = Heap.pop heap in
        let n = !node_count in
        incr node_count;
        parent.(a) <- n;
        parent.(b) <- n;
        Heap.push heap (fa + fb, n)
      done;
      let lengths = Array.make max_symbols 0 in
      Array.iteri
        (fun s f ->
          if f > 0 then begin
            let d = ref 0 and n = ref s in
            while parent.(!n) >= 0 do
              incr d;
              n := parent.(!n)
            done;
            lengths.(s) <- !d
          end)
        freqs;
      lengths
    end

  (* Canonical code assignment from lengths. *)
  let canonical_codes lengths =
    let codes = Array.make max_symbols 0 in
    let max_len = Array.fold_left max 0 lengths in
    let bl_count = Array.make (max_len + 1) 0 in
    Array.iter (fun l -> if l > 0 then bl_count.(l) <- bl_count.(l) + 1) lengths;
    let next_code = Array.make (max_len + 2) 0 in
    let code = ref 0 in
    for bits = 1 to max_len do
      code := (!code + bl_count.(bits - 1)) lsl 1;
      next_code.(bits) <- !code
    done;
    for s = 0 to max_symbols - 1 do
      let l = lengths.(s) in
      if l > 0 then begin
        codes.(s) <- next_code.(l);
        next_code.(l) <- next_code.(l) + 1
      end
    done;
    codes

  let encode data =
    let n = Bytes.length data in
    let out = Buffer.create (n / 2) in
    Varint.write_unsigned out (Int64.of_int n);
    if n = 0 then Buffer.to_bytes out
    else begin
      let freqs = Array.make max_symbols 0 in
      Bytes.iter (fun c -> freqs.(Char.code c) <- freqs.(Char.code c) + 1) data;
      let lengths = code_lengths freqs in
      let codes = canonical_codes lengths in
      (* Sparse table header when the alphabet is small (audit-record op and
         count columns use a handful of symbols): distinct-symbol count,
         then (symbol, length) pairs.  0xFF marks a dense 256-byte table. *)
      let distinct = Array.fold_left (fun acc l -> if l > 0 then acc + 1 else acc) 0 lengths in
      if distinct < 128 then begin
        Buffer.add_char out (Char.unsafe_chr distinct);
        Array.iteri
          (fun s l ->
            if l > 0 then begin
              Buffer.add_char out (Char.unsafe_chr s);
              Buffer.add_char out (Char.unsafe_chr l)
            end)
          lengths
      end
      else begin
        Buffer.add_char out '\xFF';
        Array.iter (fun l -> Buffer.add_char out (Char.unsafe_chr l)) lengths
      end;
      let w = Bitio.Writer.create () in
      Bytes.iter
        (fun c ->
          let s = Char.code c in
          Bitio.Writer.put_bits w ~value:codes.(s) ~bits:lengths.(s))
        data;
      Buffer.add_bytes out (Bitio.Writer.contents w);
      Buffer.to_bytes out
    end

  let decode data =
    let pos = ref 0 in
    let n = Int64.to_int (Varint.read_unsigned data pos) in
    if n = 0 then Bytes.create 0
    else begin
      if Bytes.length data <= !pos then invalid_arg "Huffman.decode: truncated table";
      let marker = Char.code (Bytes.get data !pos) in
      incr pos;
      let lengths =
        if marker = 0xFF then begin
          if Bytes.length data < !pos + max_symbols then
            invalid_arg "Huffman.decode: truncated table";
          let l = Array.init max_symbols (fun i -> Char.code (Bytes.get data (!pos + i))) in
          pos := !pos + max_symbols;
          l
        end
        else begin
          if Bytes.length data < !pos + (2 * marker) then
            invalid_arg "Huffman.decode: truncated table";
          let l = Array.make max_symbols 0 in
          for i = 0 to marker - 1 do
            let s = Char.code (Bytes.get data (!pos + (2 * i))) in
            l.(s) <- Char.code (Bytes.get data (!pos + (2 * i) + 1))
          done;
          pos := !pos + (2 * marker);
          l
        end
      in
      let codes = canonical_codes lengths in
      (* Decoding table: (length, code) -> symbol. *)
      let table = Hashtbl.create 64 in
      Array.iteri (fun s l -> if l > 0 then Hashtbl.replace table (l, codes.(s)) s) lengths;
      let payload = Bytes.sub data !pos (Bytes.length data - !pos) in
      let r = Bitio.Reader.create payload in
      let out = Bytes.create n in
      for i = 0 to n - 1 do
        let len = ref 0 and code = ref 0 in
        let sym = ref (-1) in
        while !sym < 0 do
          code := (!code lsl 1) lor Bitio.Reader.get_bit r;
          incr len;
          if !len > 62 then invalid_arg "Huffman.decode: bad stream";
          match Hashtbl.find_opt table (!len, !code) with
          | Some s -> sym := s
          | None -> ()
        done;
        Bytes.set out i (Char.unsafe_chr !sym)
      done;
      out
    end
end

module Columnar = struct
  module Record = Sbt_attest.Record

  (* Column streams. Every record contributes its tag; other columns are
     appended to only by the record kinds that have the field.  Decoding
     replays tags first, then pulls from each column in the same order. *)

  type columns = {
    tags : Buffer.t; (* byte per record -> Huffman *)
    ts : Buffer.t; (* delta varint *)
    ops : Buffer.t; (* byte per execution -> Huffman *)
    counts : Buffer.t; (* unsigned varints (list lengths) -> Huffman *)
    new_ids : Buffer.t; (* ids at creation (near-monotonic) - delta varint *)
    used_ids : Buffer.t; (* ids at consumption - delta varint, own cursor *)
    win_nos : Buffer.t; (* delta varint *)
    values : Buffer.t; (* delta varint (watermark values, gap event counts) *)
    hints : Buffer.t; (* (pred, succ) id pairs, delta varints *)
    streams : Buffer.t; (* ingress/gap stream ids - delta varint *)
    seqs : Buffer.t; (* ingress/gap frame seqs (near-monotonic) - delta varint *)
    blobs : Buffer.t; (* length-prefixed opaque bytes (fused params) *)
  }

  let split records =
    let c =
      {
        tags = Buffer.create 256;
        ts = Buffer.create 256;
        ops = Buffer.create 64;
        counts = Buffer.create 64;
        new_ids = Buffer.create 256;
        used_ids = Buffer.create 256;
        win_nos = Buffer.create 64;
        values = Buffer.create 64;
        hints = Buffer.create 64;
        streams = Buffer.create 64;
        seqs = Buffer.create 64;
        blobs = Buffer.create 64;
      }
    in
    let prev_ts = ref 0 and prev_id = ref 0 and prev_win = ref 0 and prev_val = ref 0 in
    let prev_hint = ref 0 in
    let put_hint h =
      (* Hints pack two 32-bit ids; both are near the current id cursor, so
         encode each as a delta against a dedicated cursor. *)
      let pred = Int64.to_int (Int64.shift_right_logical h 32) in
      let succ = Int64.to_int (Int64.logand h 0xFFFFFFFFL) in
      Varint.write_signed c.hints (Int64.of_int (pred - !prev_hint));
      prev_hint := pred;
      Varint.write_signed c.hints (Int64.of_int (succ - !prev_hint));
      prev_hint := succ
    in
    let put_ts v =
      Varint.write_signed c.ts (Int64.of_int (v - !prev_ts));
      prev_ts := v
    in
    let prev_used = ref 0 in
    let put_new_id v =
      Varint.write_signed c.new_ids (Int64.of_int (v - !prev_id));
      prev_id := v
    in
    let put_used_id v =
      Varint.write_signed c.used_ids (Int64.of_int (v - !prev_used));
      prev_used := v
    in
    let put_win v =
      Varint.write_signed c.win_nos (Int64.of_int (v - !prev_win));
      prev_win := v
    in
    let put_val v =
      Varint.write_signed c.values (Int64.of_int (v - !prev_val));
      prev_val := v
    in
    (* List lengths below 128 take one byte; a window close over hundreds
       of segments takes two. *)
    let put_count l = Varint.write_unsigned c.counts (Int64.of_int (List.length l)) in
    (* Fused params repeat verbatim across segments of the same pipeline,
       so the blob column back-references: 0 = "same as the previous blob",
       n > 0 = a literal of n-1 bytes.  The chain hash is not sent at all:
       it is [Record.chain_hash ops params], and the batch MAC already
       covers both, so the decoder derives it. *)
    let prev_blob = ref Bytes.empty in
    let put_blob b =
      if Bytes.equal b !prev_blob then Varint.write_unsigned c.blobs 0L
      else begin
        Varint.write_unsigned c.blobs (Int64.of_int (Bytes.length b + 1));
        Buffer.add_bytes c.blobs b;
        prev_blob := b
      end
    in
    let prev_stream = ref 0 and prev_seq = ref 0 in
    let put_stream v =
      Varint.write_signed c.streams (Int64.of_int (v - !prev_stream));
      prev_stream := v
    in
    let put_seq v =
      Varint.write_signed c.seqs (Int64.of_int (v - !prev_seq));
      prev_seq := v
    in
    List.iter
      (fun r ->
        match r with
        | Record.Ingress { ts; uarray; stream; seq } ->
            Buffer.add_char c.tags '\000';
            put_ts ts;
            put_new_id uarray;
            put_stream stream;
            put_seq seq
        | Record.Ingress_watermark { ts; id; value } ->
            Buffer.add_char c.tags '\001';
            put_ts ts;
            put_new_id id;
            put_val value
        | Record.Windowing { ts; data_in; win_no; data_out } ->
            Buffer.add_char c.tags '\002';
            put_ts ts;
            put_used_id data_in;
            put_win win_no;
            put_new_id data_out
        | Record.Execution { ts; op; inputs; outputs; hints } ->
            Buffer.add_char c.tags '\003';
            put_ts ts;
            Buffer.add_char c.ops (Char.unsafe_chr (op land 0xFF));
            put_count inputs;
            put_count outputs;
            put_count hints;
            List.iter put_used_id inputs;
            List.iter put_new_id outputs;
            List.iter put_hint hints
        | Record.Egress { ts; uarray; win_no } ->
            Buffer.add_char c.tags '\004';
            put_ts ts;
            put_used_id uarray;
            put_win win_no
        | Record.Gap { ts; stream; seq; events; windows; reason } ->
            Buffer.add_char c.tags '\005';
            put_ts ts;
            put_stream stream;
            put_seq seq;
            put_val events;
            Buffer.add_char c.counts (Char.unsafe_chr (Record.gap_reason_tag reason land 0xFF));
            put_count windows;
            List.iter put_win windows
        | Record.Checkpoint { ts; seq; watermark } ->
            Buffer.add_char c.tags '\006';
            put_ts ts;
            put_seq seq;
            put_val watermark
        | Record.Fused { ts; ops; params; chain = _; inputs; outputs; hints } ->
            Buffer.add_char c.tags '\007';
            put_ts ts;
            put_count ops;
            List.iter (fun op -> Buffer.add_char c.ops (Char.unsafe_chr (op land 0xFF))) ops;
            put_blob params;
            put_count inputs;
            put_count outputs;
            put_count hints;
            List.iter put_used_id inputs;
            List.iter put_new_id outputs;
            List.iter put_hint hints
        | Record.Late_drop { ts; uarray; win_no; events } ->
            Buffer.add_char c.tags '\008';
            put_ts ts;
            put_used_id uarray;
            put_win win_no;
            put_val events
        | Record.Correction { ts; uarray; win_no; gen } ->
            Buffer.add_char c.tags '\009';
            put_ts ts;
            put_used_id uarray;
            put_win win_no;
            put_val gen)
      records;
    c

  let compress records =
    let c = split records in
    let out = Buffer.create 1024 in
    Varint.write_unsigned out (Int64.of_int (List.length records));
    let add_block b =
      Varint.write_unsigned out (Int64.of_int (Bytes.length b));
      Buffer.add_bytes out b
    in
    (* Every column gets an entropy stage on top: delta-varint bytes are
       heavily skewed toward small values, so canonical Huffman shaves
       another 25-40% beyond the delta coding. *)
    add_block (Huffman.encode (Buffer.to_bytes c.tags));
    add_block (Huffman.encode (Buffer.to_bytes c.ts));
    add_block (Huffman.encode (Buffer.to_bytes c.ops));
    add_block (Huffman.encode (Buffer.to_bytes c.counts));
    add_block (Huffman.encode (Buffer.to_bytes c.new_ids));
    add_block (Huffman.encode (Buffer.to_bytes c.used_ids));
    add_block (Huffman.encode (Buffer.to_bytes c.win_nos));
    add_block (Huffman.encode (Buffer.to_bytes c.values));
    add_block (Huffman.encode (Buffer.to_bytes c.hints));
    add_block (Huffman.encode (Buffer.to_bytes c.streams));
    add_block (Huffman.encode (Buffer.to_bytes c.seqs));
    add_block (Huffman.encode (Buffer.to_bytes c.blobs));
    Buffer.to_bytes out
end
