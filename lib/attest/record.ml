type gap_reason = Link_loss | Corrupt_ingress | Smc_unavailable | Pool_pressure

let gap_reason_tag = function
  | Link_loss -> 0
  | Corrupt_ingress -> 1
  | Smc_unavailable -> 2
  | Pool_pressure -> 3

let gap_reason_of_tag = function
  | 0 -> Link_loss
  | 1 -> Corrupt_ingress
  | 2 -> Smc_unavailable
  | 3 -> Pool_pressure
  | t -> invalid_arg (Printf.sprintf "Record.gap_reason_of_tag: %d" t)

let gap_reason_name = function
  | Link_loss -> "link-loss"
  | Corrupt_ingress -> "corrupt-ingress"
  | Smc_unavailable -> "smc-unavailable"
  | Pool_pressure -> "pool-pressure"

type t =
  | Ingress of { ts : int; uarray : int; stream : int; seq : int }
  | Ingress_watermark of { ts : int; id : int; value : int }
  | Windowing of { ts : int; data_in : int; win_no : int; data_out : int }
  | Execution of { ts : int; op : int; inputs : int list; outputs : int list; hints : int64 list }
  | Egress of { ts : int; uarray : int; win_no : int }
  | Gap of { ts : int; stream : int; seq : int; events : int; windows : int list; reason : gap_reason }
  | Checkpoint of { ts : int; seq : int; watermark : int }
  | Fused of {
      ts : int;
      ops : int list;
      params : bytes;
      chain : bytes;
      inputs : int list;
      outputs : int list;
      hints : int64 list;
    }
  | Late_drop of { ts : int; uarray : int; win_no : int; events : int }
  | Correction of { ts : int; uarray : int; win_no : int; gen : int }

(* The composite record's chain hash commits to the ordered op ids AND
   their parameter blob: reordering the chain, swapping an op, or editing
   a parameter all change the digest.  Truncated to 16 bytes — the hash
   rides in every fused record, and 128 bits is ample for a second
   preimage the normal world would have to find. *)
let chain_hash ~ops ~params =
  let b = Buffer.create (16 + (2 * List.length ops) + Bytes.length params) in
  Buffer.add_string b "sbt-fused-chain1";
  List.iter
    (fun op ->
      Buffer.add_char b (Char.chr (op land 0xff));
      Buffer.add_char b (Char.chr ((op lsr 8) land 0xff)))
    ops;
  Buffer.add_bytes b params;
  Bytes.sub (Sbt_crypto.Sha256.digest (Buffer.to_bytes b)) 0 16

let tag = function
  | Ingress _ -> 0
  | Ingress_watermark _ -> 1
  | Windowing _ -> 2
  | Execution _ -> 3
  | Egress _ -> 4
  | Gap _ -> 5
  | Checkpoint _ -> 6
  | Fused _ -> 7
  | Late_drop _ -> 8
  | Correction _ -> 9

let ts_of = function
  | Ingress { ts; _ } | Ingress_watermark { ts; _ } | Windowing { ts; _ }
  | Execution { ts; _ } | Egress { ts; _ } | Gap { ts; _ } | Checkpoint { ts; _ }
  | Fused { ts; _ } | Late_drop { ts; _ } | Correction { ts; _ } ->
      ts

let encode_row buf r =
  Buffer.add_char buf (Char.unsafe_chr (tag r));
  let u32 v =
    for i = 0 to 3 do
      Buffer.add_char buf (Char.unsafe_chr ((v lsr (8 * i)) land 0xFF))
    done
  in
  let u16 v =
    Buffer.add_char buf (Char.unsafe_chr (v land 0xFF));
    Buffer.add_char buf (Char.unsafe_chr ((v lsr 8) land 0xFF))
  in
  match r with
  | Ingress { ts; uarray; stream; seq } ->
      u32 ts;
      u32 uarray;
      u16 stream;
      u32 seq
  | Ingress_watermark { ts; id; value } ->
      u32 ts;
      u32 id;
      u32 value
  | Windowing { ts; data_in; win_no; data_out } ->
      u32 ts;
      u32 data_in;
      u16 win_no;
      u32 data_out
  | Execution { ts; op; inputs; outputs; hints } ->
      u32 ts;
      u16 op;
      u16 (List.length inputs);
      List.iter u32 inputs;
      u16 (List.length outputs);
      List.iter u32 outputs;
      u16 (List.length hints);
      List.iter
        (fun h ->
          u32 (Int64.to_int (Int64.logand h 0xFFFFFFFFL));
          u32 (Int64.to_int (Int64.shift_right_logical h 32)))
        hints
  | Egress { ts; uarray; win_no } ->
      u32 ts;
      u32 uarray;
      u16 win_no
  | Gap { ts; stream; seq; events; windows; reason } ->
      u32 ts;
      u16 stream;
      u32 seq;
      u32 events;
      u16 (gap_reason_tag reason);
      u16 (List.length windows);
      List.iter u32 windows
  | Checkpoint { ts; seq; watermark } ->
      u32 ts;
      u32 seq;
      u32 watermark
  | Fused { ts; ops; params; chain; inputs; outputs; hints } ->
      u32 ts;
      u16 (List.length ops);
      List.iter u16 ops;
      u16 (Bytes.length params);
      Buffer.add_bytes buf params;
      u16 (Bytes.length chain);
      Buffer.add_bytes buf chain;
      u16 (List.length inputs);
      List.iter u32 inputs;
      u16 (List.length outputs);
      List.iter u32 outputs;
      u16 (List.length hints);
      List.iter
        (fun h ->
          u32 (Int64.to_int (Int64.logand h 0xFFFFFFFFL));
          u32 (Int64.to_int (Int64.shift_right_logical h 32)))
        hints
  | Late_drop { ts; uarray; win_no; events } ->
      u32 ts;
      u32 uarray;
      u16 win_no;
      u32 events
  | Correction { ts; uarray; win_no; gen } ->
      u32 ts;
      u32 uarray;
      u16 win_no;
      u16 gen

let decode_row data pos =
  let byte () =
    if !pos >= Bytes.length data then invalid_arg "Record.decode_row: truncated";
    let c = Char.code (Bytes.get data !pos) in
    incr pos;
    c
  in
  let u32 () =
    let a = byte () and b = byte () and c = byte () and d = byte () in
    a lor (b lsl 8) lor (c lsl 16) lor (d lsl 24)
  in
  let u16 () =
    let a = byte () and b = byte () in
    a lor (b lsl 8)
  in
  match byte () with
  | 0 ->
      let ts = u32 () in
      let uarray = u32 () in
      let stream = u16 () in
      let seq = u32 () in
      Ingress { ts; uarray; stream; seq }
  | 1 ->
      let ts = u32 () in
      let id = u32 () in
      let value = u32 () in
      Ingress_watermark { ts; id; value }
  | 2 ->
      let ts = u32 () in
      let data_in = u32 () in
      let win_no = u16 () in
      let data_out = u32 () in
      Windowing { ts; data_in; win_no; data_out }
  | 3 ->
      let ts = u32 () in
      let op = u16 () in
      let n_in = u16 () in
      let inputs = List.init n_in (fun _ -> u32 ()) in
      let n_out = u16 () in
      let outputs = List.init n_out (fun _ -> u32 ()) in
      let n_h = u16 () in
      let hints =
        List.init n_h (fun _ ->
            let lo = u32 () in
            let hi = u32 () in
            Int64.logor (Int64.of_int lo) (Int64.shift_left (Int64.of_int hi) 32))
      in
      Execution { ts; op; inputs; outputs; hints }
  | 4 ->
      let ts = u32 () in
      let uarray = u32 () in
      let win_no = u16 () in
      Egress { ts; uarray; win_no }
  | 5 ->
      let ts = u32 () in
      let stream = u16 () in
      let seq = u32 () in
      let events = u32 () in
      let reason = gap_reason_of_tag (u16 ()) in
      let n = u16 () in
      let windows = List.init n (fun _ -> u32 ()) in
      Gap { ts; stream; seq; events; windows; reason }
  | 6 ->
      let ts = u32 () in
      let seq = u32 () in
      let watermark = u32 () in
      Checkpoint { ts; seq; watermark }
  | 7 ->
      let bytes_n n =
        if !pos + n > Bytes.length data then invalid_arg "Record.decode_row: truncated";
        let b = Bytes.sub data !pos n in
        pos := !pos + n;
        b
      in
      let ts = u32 () in
      let n_ops = u16 () in
      let ops = List.init n_ops (fun _ -> u16 ()) in
      let params = bytes_n (u16 ()) in
      let chain = bytes_n (u16 ()) in
      let n_in = u16 () in
      let inputs = List.init n_in (fun _ -> u32 ()) in
      let n_out = u16 () in
      let outputs = List.init n_out (fun _ -> u32 ()) in
      let n_h = u16 () in
      let hints =
        List.init n_h (fun _ ->
            let lo = u32 () in
            let hi = u32 () in
            Int64.logor (Int64.of_int lo) (Int64.shift_left (Int64.of_int hi) 32))
      in
      Fused { ts; ops; params; chain; inputs; outputs; hints }
  | 8 ->
      let ts = u32 () in
      let uarray = u32 () in
      let win_no = u16 () in
      let events = u32 () in
      Late_drop { ts; uarray; win_no; events }
  | 9 ->
      let ts = u32 () in
      let uarray = u32 () in
      let win_no = u16 () in
      let gen = u16 () in
      Correction { ts; uarray; win_no; gen }
  | t -> invalid_arg (Printf.sprintf "Record.decode_row: bad tag %d" t)

let encode_all records =
  let buf = Buffer.create 4096 in
  Varint.write_unsigned buf (List.length records);
  List.iter (encode_row buf) records;
  Buffer.to_bytes buf

let decode_all data =
  let pos = ref 0 in
  let n = Varint.read_unsigned data pos in
  List.init n (fun _ -> decode_row data pos)
