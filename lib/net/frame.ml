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

(* Authenticated bytes: a 12-byte little-endian header binding the frame
   to its (stream, seq, events) identity, then the payload as carried on
   the wire (encrypt-then-MAC when the link is encrypted). *)
let auth_input ~stream ~seq ~events payload =
  let b = Bytes.create (12 + Bytes.length payload) in
  let set_u32 off v =
    Bytes.set b off (Char.unsafe_chr (v land 0xFF));
    Bytes.set b (off + 1) (Char.unsafe_chr ((v lsr 8) land 0xFF));
    Bytes.set b (off + 2) (Char.unsafe_chr ((v lsr 16) land 0xFF));
    Bytes.set b (off + 3) (Char.unsafe_chr ((v lsr 24) land 0xFF))
  in
  set_u32 0 stream;
  set_u32 4 seq;
  set_u32 8 events;
  Bytes.blit payload 0 b 12 (Bytes.length payload);
  b

let mac_payload ~key ~stream ~seq ~events payload =
  Sbt_crypto.Hmac.mac ~key (auth_input ~stream ~seq ~events payload)

let payload_mac_valid ~key ~stream ~seq ~events ~mac payload =
  Bytes.length mac > 0
  && Sbt_crypto.Hmac.verify ~key ~tag:mac (auth_input ~stream ~seq ~events payload)

let seal ~key = function
  | Watermark _ as f -> f
  | Events e ->
      Events
        { e with mac = mac_payload ~key ~stream:e.stream ~seq:e.seq ~events:e.events e.payload }

let sealed = function Watermark _ -> false | Events e -> Bytes.length e.mac > 0

let mac_valid ~key = function
  | Watermark _ -> true
  | Events e ->
      payload_mac_valid ~key ~stream:e.stream ~seq:e.seq ~events:e.events ~mac:e.mac e.payload

let encrypt_payload ~key ~stream_nonce = function
  | Watermark _ as f -> f
  | Events e ->
      if e.encrypted then Events e
      else begin
        let ctr = Sbt_crypto.Ctr.create ~key ~nonce:stream_nonce in
        let p = Bytes.copy e.payload in
        Sbt_crypto.Ctr.xcrypt ctr ~pos:(ctr_pos e.seq) p 0 (Bytes.length p);
        Events { e with payload = p; encrypted = true }
      end

let decrypt_payload ~key ~stream_nonce = function
  | Watermark _ as f -> f
  | Events e ->
      if not e.encrypted then Events e
      else begin
        let ctr = Sbt_crypto.Ctr.create ~key ~nonce:stream_nonce in
        let p = Bytes.copy e.payload in
        Sbt_crypto.Ctr.xcrypt ctr ~pos:(ctr_pos e.seq) p 0 (Bytes.length p);
        Events { e with payload = p; encrypted = false }
      end
