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
    Varint.write_signed c.hints (pred - !prev_hint);
    prev_hint := pred;
    Varint.write_signed c.hints (succ - !prev_hint);
    prev_hint := succ
  in
  let put_ts v =
    Varint.write_signed c.ts (v - !prev_ts);
    prev_ts := v
  in
  let prev_used = ref 0 in
  let put_new_id v =
    Varint.write_signed c.new_ids (v - !prev_id);
    prev_id := v
  in
  let put_used_id v =
    Varint.write_signed c.used_ids (v - !prev_used);
    prev_used := v
  in
  let put_win v =
    Varint.write_signed c.win_nos (v - !prev_win);
    prev_win := v
  in
  let put_val v =
    Varint.write_signed c.values (v - !prev_val);
    prev_val := v
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
  let prev_stream = ref 0 and prev_seq = ref 0 in
  let put_stream v =
    Varint.write_signed c.streams (v - !prev_stream);
    prev_stream := v
  in
  let put_seq v =
    Varint.write_signed c.seqs (v - !prev_seq);
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
  let ts_pos = ref 0 and new_id_pos = ref 0 and used_id_pos = ref 0 in
  let win_pos = ref 0 and val_pos = ref 0 in
  let hint_pos = ref 0 and op_pos = ref 0 and cnt_pos = ref 0 in
  let stream_pos = ref 0 and seq_pos = ref 0 in
  let blob_pos = ref 0 in
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
  (* Chain hashes derived once per distinct (ops, params) in the batch. *)
  let chains = Hashtbl.create 4 in
  let chain_of ops params =
    match Hashtbl.find_opt chains (ops, params) with
    | Some chain -> chain
    | None ->
        let chain = Record.chain_hash ~ops ~params in
        Hashtbl.add chains (ops, params) chain;
        chain
  in
  let prev_ts = ref 0 and prev_id = ref 0 and prev_win = ref 0 and prev_val = ref 0 in
  let prev_hint = ref 0 and prev_stream = ref 0 and prev_seq = ref 0 in
  let get_hint () =
    prev_hint := !prev_hint + Varint.read_signed hints_col hint_pos;
    let pred = !prev_hint in
    prev_hint := !prev_hint + Varint.read_signed hints_col hint_pos;
    let succ = !prev_hint in
    Int64.logor (Int64.shift_left (Int64.of_int pred) 32) (Int64.of_int succ)
  in
  let get_ts () =
    prev_ts := !prev_ts + Varint.read_signed ts_col ts_pos;
    !prev_ts
  in
  let prev_used = ref 0 in
  let get_new_id () =
    prev_id := !prev_id + Varint.read_signed new_ids_col new_id_pos;
    !prev_id
  in
  let get_used_id () =
    prev_used := !prev_used + Varint.read_signed used_ids_col used_id_pos;
    !prev_used
  in
  let get_win () =
    prev_win := !prev_win + Varint.read_signed wins_col win_pos;
    !prev_win
  in
  let get_val () =
    prev_val := !prev_val + Varint.read_signed vals_col val_pos;
    !prev_val
  in
  let get_stream () =
    prev_stream := !prev_stream + Varint.read_signed streams_col stream_pos;
    !prev_stream
  in
  let get_seq () =
    prev_seq := !prev_seq + Varint.read_signed seqs_col seq_pos;
    !prev_seq
  in
  let get_byte buf pos =
    let c = Char.code (Bytes.get buf !pos) in
    incr pos;
    c
  in
  let get_count () = Varint.read_unsigned counts cnt_pos in
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
          let inputs = List.init n_in (fun _ -> get_used_id ()) in
          let outputs = List.init n_out (fun _ -> get_new_id ()) in
          let hints = List.init n_h (fun _ -> get_hint ()) in
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
          let windows = List.init n_w (fun _ -> get_win ()) in
          Record.Gap { ts; stream; seq; events; windows; reason }
      | 6 ->
          let ts = get_ts () in
          let seq = get_seq () in
          let watermark = get_val () in
          Record.Checkpoint { ts; seq; watermark }
      | 7 ->
          let ts = get_ts () in
          let n_ops = get_count () in
          let ops = List.init n_ops (fun _ -> get_byte ops op_pos) in
          let params = get_blob () in
          let chain = chain_of ops params in
          let n_in = get_count () in
          let n_out = get_count () in
          let n_h = get_count () in
          let inputs = List.init n_in (fun _ -> get_used_id ()) in
          let outputs = List.init n_out (fun _ -> get_new_id ()) in
          let hints = List.init n_h (fun _ -> get_hint ()) in
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
