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
  (* Each delta column keeps its own cursor: a value goes out as its
     difference from the column's previous one. *)
  let delta buf =
    let prev = ref 0 in
    fun v ->
      Varint.write_signed buf (v - !prev);
      prev := v
  in
  let put_ts = delta c.ts and put_new_id = delta c.new_ids and put_used_id = delta c.used_ids in
  let put_win = delta c.win_nos and put_val = delta c.values in
  (* Hints pack two 32-bit ids; both are near the current id cursor, so
     each goes out as a delta against one hint cursor. *)
  let put_hint_id = delta c.hints in
  let put_hint h =
    put_hint_id (Int64.to_int (Int64.shift_right_logical h 32));
    put_hint_id (Int64.to_int (Int64.logand h 0xFFFFFFFFL))
  in
  (* List lengths below 128 take one byte; a window close over hundreds
     of segments takes two. *)
  let put_count l = Varint.write_unsigned c.counts (List.length l) in
  (* Fused params repeat verbatim across segments of the same pipeline,
     so the blob column back-references: 0 = "same as the previous blob",
     n > 0 = a literal of n-1 bytes.  The chain hash is not sent at all:
     it is [Record.chain_hash ops params], and the batch MAC already
     covers both, so the decoder derives it. *)
  let prev_blob = ref Bytes.empty in
  let put_blob b =
    if Bytes.equal b !prev_blob then Varint.write_unsigned c.blobs 0
    else begin
      Varint.write_unsigned c.blobs (Bytes.length b + 1);
      Buffer.add_bytes c.blobs b;
      prev_blob := b
    end
  in
  let put_stream = delta c.streams and put_seq = delta c.seqs in
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
  Varint.write_unsigned out (List.length records);
  let add_block b =
    Varint.write_unsigned out (Bytes.length b);
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

let decompress data =
  let pos = ref 0 in
  let n = Varint.read_unsigned data pos in
  let block () =
    let len = Varint.read_unsigned data pos in
    if !pos + len > Bytes.length data then invalid_arg "Columnar.decompress: truncated";
    let b = Bytes.sub data !pos len in
    pos := !pos + len;
    b
  in
  let tags = Huffman.decode (block ()) in
  let ts_col = Huffman.decode (block ()) in
  let ops = Huffman.decode (block ()) in
  let counts = Huffman.decode (block ()) in
  let new_ids_col = Huffman.decode (block ()) in
  let used_ids_col = Huffman.decode (block ()) in
  let wins_col = Huffman.decode (block ()) in
  let vals_col = Huffman.decode (block ()) in
  let hints_col = Huffman.decode (block ()) in
  let streams_col = Huffman.decode (block ()) in
  let seqs_col = Huffman.decode (block ()) in
  let blobs_col = Huffman.decode (block ()) in
  let op_pos = ref 0 and cnt_pos = ref 0 and blob_pos = ref 0 in
  let prev_blob = ref Bytes.empty in
  let get_blob () =
    (* 0 is a back-reference to the previous blob; n > 0 is a literal of
       n-1 bytes (see [split]). *)
    let tag = Varint.read_unsigned blobs_col blob_pos in
    if tag = 0 then !prev_blob
    else begin
      let len = tag - 1 in
      if !blob_pos + len > Bytes.length blobs_col then
        invalid_arg "Columnar.decompress: truncated blob";
      let b = Bytes.sub blobs_col !blob_pos len in
      blob_pos := !blob_pos + len;
      prev_blob := b;
      b
    end
  in
  (* A chain hash is derived again only when (ops, params) differ from
     the last Fused record's: one fused chain per batch plan (every
     pipeline today) derives it once per batch, and a plan with two
     alternating chains once per record. *)
  let last = ref None in
  let chain_of ops params =
    match !last with
    | Some (o, p, chain) when Bytes.equal p params && List.equal Int.equal o ops -> chain
    | _ ->
        let chain = Record.chain_hash ~ops ~params in
        last := Some (ops, params, chain);
        chain
  in
  (* Each delta column is read back through its own cursor and running
     value, as [split] wrote it. *)
  let delta col =
    let pos = ref 0 and prev = ref 0 in
    fun () ->
      prev := !prev + Varint.read_signed col pos;
      !prev
  in
  let get_ts = delta ts_col and get_new_id = delta new_ids_col and get_used_id = delta used_ids_col in
  let get_win = delta wins_col and get_val = delta vals_col in
  let get_stream = delta streams_col and get_seq = delta seqs_col and get_hint_id = delta hints_col in
  let get_hint () =
    let pred = get_hint_id () in
    let succ = get_hint_id () in
    Int64.logor (Int64.shift_left (Int64.of_int pred) 32) (Int64.of_int succ)
  in
  let get_byte buf pos =
    let c = Char.code (Bytes.get buf !pos) in
    incr pos;
    c
  in
  let get_count () = Varint.read_unsigned counts cnt_pos in
  let rec take n get = if n = 0 then [] else let x = get () in x :: take (n - 1) get in
  List.init n (fun i ->
      match Char.code (Bytes.get tags i) with
      | 0 ->
          let ts = get_ts () in
          let uarray = get_new_id () in
          let stream = get_stream () in
          let seq = get_seq () in
          Record.Ingress { ts; uarray; stream; seq }
      | 1 ->
          let ts = get_ts () in
          let id = get_new_id () in
          let value = get_val () in
          Record.Ingress_watermark { ts; id; value }
      | 2 ->
          let ts = get_ts () in
          let data_in = get_used_id () in
          let win_no = get_win () in
          let data_out = get_new_id () in
          Record.Windowing { ts; data_in; win_no; data_out }
      | 3 ->
          let ts = get_ts () in
          let op = get_byte ops op_pos in
          let n_in = get_count () in
          let n_out = get_count () in
          let n_h = get_count () in
          let inputs = take n_in get_used_id in
          let outputs = take n_out get_new_id in
          let hints = take n_h get_hint in
          Record.Execution { ts; op; inputs; outputs; hints }
      | 4 ->
          let ts = get_ts () in
          let uarray = get_used_id () in
          let win_no = get_win () in
          Record.Egress { ts; uarray; win_no }
      | 5 ->
          let ts = get_ts () in
          let stream = get_stream () in
          let seq = get_seq () in
          let events = get_val () in
          let reason = Record.gap_reason_of_tag (get_byte counts cnt_pos) in
          let n_w = get_count () in
          let windows = take n_w get_win in
          Record.Gap { ts; stream; seq; events; windows; reason }
      | 6 ->
          let ts = get_ts () in
          let seq = get_seq () in
          let watermark = get_val () in
          Record.Checkpoint { ts; seq; watermark }
      | 7 ->
          let ts = get_ts () in
          let n_ops = get_count () in
          let ops = take n_ops (fun () -> get_byte ops op_pos) in
          let params = get_blob () in
          let chain = chain_of ops params in
          let n_in = get_count () in
          let n_out = get_count () in
          let n_h = get_count () in
          let inputs = take n_in get_used_id in
          let outputs = take n_out get_new_id in
          let hints = take n_h get_hint in
          Record.Fused { ts; ops; params; chain; inputs; outputs; hints }
      | 8 ->
          let ts = get_ts () in
          let uarray = get_used_id () in
          let win_no = get_win () in
          let events = get_val () in
          Record.Late_drop { ts; uarray; win_no; events }
      | 9 ->
          let ts = get_ts () in
          let uarray = get_used_id () in
          let win_no = get_win () in
          let gen = get_val () in
          Record.Correction { ts; uarray; win_no; gen }
      | t -> invalid_arg (Printf.sprintf "Columnar.decompress: bad tag %d" t))

let raw_size records = Bytes.length (Record.encode_all records)

let ratio records =
  match records with
  | [] -> 1.0
  | _ :: _ -> float_of_int (raw_size records) /. float_of_int (Bytes.length (compress records))
