type t =
  | Events of {
      seq : int;
      stream : int;
      events : int;
      windows : int list;
      payload : bytes;
      encrypted : bool;
      mac : bytes;
    }
  | Watermark of { seq : int; value : int }

let pack_events ~width records =
  let n = Array.length records in
  let b = Bytes.create (n * width * 4) in
  Array.iteri
    (fun r fields ->
      if Array.length fields <> width then invalid_arg "Frame.pack_events: bad record width";
      Array.iteri
        (fun f v ->
          let off = ((r * width) + f) * 4 in
          Bytes.set b off (Char.unsafe_chr (Int32.to_int v land 0xFF));
          Bytes.set b (off + 1) (Char.unsafe_chr (Int32.to_int (Int32.shift_right_logical v 8) land 0xFF));
          Bytes.set b (off + 2) (Char.unsafe_chr (Int32.to_int (Int32.shift_right_logical v 16) land 0xFF));
          Bytes.set b (off + 3) (Char.unsafe_chr (Int32.to_int (Int32.shift_right_logical v 24) land 0xFF)))
        fields)
    records;
  b

let unpack_events ~width payload =
  let total = Bytes.length payload / 4 in
  if total mod width <> 0 then invalid_arg "Frame.unpack_events: payload not a record multiple";
  let n = total / width in
  Array.init n (fun r ->
      Array.init width (fun f ->
          let off = ((r * width) + f) * 4 in
          let byte i = Int32.of_int (Char.code (Bytes.get payload (off + i))) in
          Int32.logor (byte 0)
            (Int32.logor
               (Int32.shift_left (byte 1) 8)
               (Int32.logor (Int32.shift_left (byte 2) 16) (Int32.shift_left (byte 3) 24)))))

let payload_bytes = function
  | Events { payload; _ } -> Bytes.length payload
  | Watermark _ -> 8

(* A watermark is a promise — "no event time below [value] is still in
   flight" — and a promise cannot be taken back: a frame regressing below
   the stream's last emitted value would retroactively legitimize data
   the edge already classified as late.  Constructing one is a programming
   error at the source, so it is rejected here rather than at the edge. *)
let watermark ?last ~seq ~value () =
  (match last with
  | Some prev when value < prev ->
      invalid_arg
        (Printf.sprintf "Frame.watermark: regression (value %d < last emitted %d)" value prev)
  | _ -> ());
  Watermark { seq; value }

let ctr_pos seq = Int64.shift_left (Int64.of_int seq) 32

(* The tag binds the frame's (stream, seq, events) identity and whether
   the payload on the wire is ciphertext, under the domain byte 'F'. *)
let frame_ad ~stream ~seq ~events ~encrypted =
  Sbt_crypto.Aead.ad 'F' [ stream; seq; events; Bool.to_int encrypted ]

let mac_payload ~key ~stream ~seq ~events ~encrypted payload =
  Sbt_crypto.Aead.tag key ~ad:(frame_ad ~stream ~seq ~events ~encrypted) payload 0
    (Bytes.length payload)

let payload_mac_valid ~key ~stream ~seq ~events ~encrypted ~mac payload =
  Sbt_crypto.Aead.verify key ~ad:(frame_ad ~stream ~seq ~events ~encrypted) ~tag:mac payload 0
    (Bytes.length payload)

let seal ~key = function
  | Watermark _ as f -> f
  | Events e ->
      let mac =
        mac_payload ~key ~stream:e.stream ~seq:e.seq ~events:e.events ~encrypted:e.encrypted
          e.payload
      in
      Events { e with mac }

let sealed = function Watermark _ -> false | Events e -> Bytes.length e.mac > 0

let mac_valid ~key = function
  | Watermark _ -> true
  | Events e ->
      payload_mac_valid ~key ~stream:e.stream ~seq:e.seq ~events:e.events ~encrypted:e.encrypted
        ~mac:e.mac e.payload

let encrypt_payload ~key ~stream_nonce = function
  | Events e when not e.encrypted ->
      let p = Bytes.copy e.payload in
      Sbt_crypto.Aead.xcrypt key ~nonce:stream_nonce ~pos:(ctr_pos e.seq) p 0 (Bytes.length p);
      seal ~key (Events { e with payload = p; encrypted = true })
  | f -> f

let decrypt_payload ~key ~stream_nonce = function
  | Events e when e.encrypted ->
      let p = Bytes.copy e.payload in
      Sbt_crypto.Aead.xcrypt key ~nonce:stream_nonce ~pos:(ctr_pos e.seq) p 0 (Bytes.length p);
      Events { e with payload = p; encrypted = false; mac = Bytes.empty }
  | f -> f
