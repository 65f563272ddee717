(* Tests for the wire format and link models. *)

module Frame = Sbt_net.Frame
module Link = Sbt_net.Link

let key = Sbt_crypto.Aead.of_key (Bytes.of_string "0123456789abcdef")

let sample_records =
  [| [| 1l; 2l; 3l |]; [| -4l; 5l; 6l |]; [| 7l; 8l; 2147483647l |] |]

let test_pack_unpack_roundtrip () =
  let payload = Frame.pack_events ~width:3 sample_records in
  Alcotest.(check int) "payload size" (3 * 3 * 4) (Bytes.length payload);
  let back = Frame.unpack_events ~width:3 payload in
  Alcotest.(check bool) "identical" true (back = sample_records)

let test_pack_rejects_bad_width () =
  Alcotest.check_raises "bad record" (Invalid_argument "Frame.pack_events: bad record width")
    (fun () -> ignore (Frame.pack_events ~width:3 [| [| 1l |] |]))

let test_unpack_rejects_partial () =
  Alcotest.check_raises "partial payload"
    (Invalid_argument "Frame.unpack_events: payload not a record multiple") (fun () ->
      ignore (Frame.unpack_events ~width:3 (Bytes.create 16)))

let mk_frame payload =
  Frame.Events
    { seq = 5; stream = 0; events = 3; windows = [ 0 ]; payload; encrypted = false; mac = Bytes.empty }

let test_encrypt_decrypt_roundtrip () =
  let payload = Frame.pack_events ~width:3 sample_records in
  let f = mk_frame payload in
  let enc = Frame.encrypt_payload ~key ~stream_nonce:9L f in
  (match enc with
  | Frame.Events { payload = p; encrypted; _ } ->
      Alcotest.(check bool) "marked encrypted" true encrypted;
      Alcotest.(check bool) "ciphertext differs" false (Bytes.equal p payload)
  | Frame.Watermark _ -> Alcotest.fail "wrong frame");
  match Frame.decrypt_payload ~key ~stream_nonce:9L enc with
  | Frame.Events { payload = p; encrypted; _ } ->
      Alcotest.(check bool) "cleartext again" false encrypted;
      Alcotest.(check bool) "roundtrip" true (Bytes.equal p payload)
  | Frame.Watermark _ -> Alcotest.fail "wrong frame"

let test_encrypt_idempotent_flags () =
  let payload = Frame.pack_events ~width:3 sample_records in
  let f = mk_frame payload in
  let once = Frame.encrypt_payload ~key ~stream_nonce:9L f in
  let twice = Frame.encrypt_payload ~key ~stream_nonce:9L once in
  Alcotest.(check bool) "no double encryption" true (once = twice);
  let wm = Frame.Watermark { seq = 0; value = 100 } in
  Alcotest.(check bool) "watermark unchanged" true (Frame.encrypt_payload ~key ~stream_nonce:9L wm = wm)

let test_seq_separates_keystreams () =
  let payload = Frame.pack_events ~width:3 sample_records in
  let f1 = mk_frame payload in
  let f2 =
    Frame.Events
      { seq = 6; stream = 0; events = 3; windows = [ 0 ]; payload; encrypted = false; mac = Bytes.empty }
  in
  match
    ( Frame.encrypt_payload ~key ~stream_nonce:9L f1,
      Frame.encrypt_payload ~key ~stream_nonce:9L f2 )
  with
  | Frame.Events { payload = p1; _ }, Frame.Events { payload = p2; _ } ->
      Alcotest.(check bool) "different keystream per seq" false (Bytes.equal p1 p2)
  | _, _ -> Alcotest.fail "wrong frames"

let test_payload_bytes () =
  let payload = Frame.pack_events ~width:3 sample_records in
  Alcotest.(check int) "events frame" 36 (Frame.payload_bytes (mk_frame payload));
  Alcotest.(check int) "watermark" 8 (Frame.payload_bytes (Frame.Watermark { seq = 0; value = 1 }))

(* --- authentication --------------------------------------------------------- *)

let test_seal_verify_roundtrip () =
  let payload = Frame.pack_events ~width:3 sample_records in
  let f = Frame.seal ~key (mk_frame payload) in
  Alcotest.(check bool) "sealed" true (Frame.sealed f);
  Alcotest.(check bool) "verifies" true (Frame.mac_valid ~key f);
  Alcotest.(check bool) "unsealed frame fails" false (Frame.mac_valid ~key (mk_frame payload));
  Alcotest.(check bool) "wrong key fails" false (Frame.mac_valid ~key:(Sbt_crypto.Aead.of_key (Bytes.make 16 'z')) f);
  (* Watermarks carry no payload: nothing to protect, nothing to fail. *)
  Alcotest.(check bool) "watermark ok" true (Frame.mac_valid ~key (Frame.Watermark { seq = 0; value = 1 }))

let test_seal_encrypt_then_mac () =
  (* The MAC covers the wire payload: sealing the ciphertext verifies on
     the ciphertext, and the tag still binds after decryption context. *)
  let payload = Frame.pack_events ~width:3 sample_records in
  let enc = Frame.encrypt_payload ~key ~stream_nonce:9L (mk_frame payload) in
  let f = Frame.seal ~key enc in
  Alcotest.(check bool) "verifies on ciphertext" true (Frame.mac_valid ~key f)

(* Satellite property: encode -> flip one byte anywhere in the sealed
   frame (payload, header field or tag) -> authentication must reject
   cleanly, never crash. *)
let prop_flip_one_byte_rejected =
  QCheck.Test.make ~name:"one flipped byte never authenticates" ~count:300
    QCheck.(triple (int_bound 10_000) small_nat (int_bound 254))
    (fun (seq, flip_pos, mask0) ->
      let mask = mask0 + 1 in
      let payload = Frame.pack_events ~width:3 sample_records in
      let f =
        Frame.seal ~key
          (Frame.Events
             { seq; stream = 2; events = 3; windows = [ 0 ]; payload; encrypted = false;
               mac = Bytes.empty })
      in
      match f with
      | Frame.Watermark _ -> false
      | Frame.Events ({ payload; mac; _ } as e) ->
          (* Flip one byte across the authenticated surface: payload bytes
             first, then the tag, then the header ints. *)
          let damaged =
            let n = Bytes.length payload and m = Bytes.length mac in
            let pos = flip_pos mod (n + m + 3) in
            if pos < n then begin
              let p = Bytes.copy payload in
              Bytes.set p pos (Char.chr (Char.code (Bytes.get p pos) lxor mask));
              Frame.Events { e with payload = p }
            end
            else if pos < n + m then begin
              let t = Bytes.copy mac in
              let i = pos - n in
              Bytes.set t i (Char.chr (Char.code (Bytes.get t i) lxor mask));
              Frame.Events { e with mac = t }
            end
            else
              match pos - n - m with
              | 0 -> Frame.Events { e with seq = e.seq lxor mask }
              | 1 -> Frame.Events { e with stream = e.stream lxor mask }
              | _ -> Frame.Events { e with events = e.events lxor mask }
          in
          Frame.mac_valid ~key f && not (Frame.mac_valid ~key damaged))

let test_link_transfer () =
  let l = { Link.bandwidth_bytes_per_s = 1000.0; latency_ns = 500.0 } in
  (* 100 bytes at 1000 B/s = 0.1 s = 1e8 ns, plus latency. *)
  Alcotest.(check (float 1.0)) "transfer" 100_000_500.0 (Link.transfer_ns l ~bytes_len:100);
  Alcotest.(check (float 0.0001)) "seconds" 0.1000005 (Link.seconds_to_send l ~bytes_len:100)

let test_link_presets () =
  (* The field uplink is orders of magnitude slower than GbE — that gap is
     why audit-record compression matters (Figure 12). *)
  let gbe = Link.transfer_ns Link.gbe ~bytes_len:1_000_000 in
  let up = Link.transfer_ns Link.uplink ~bytes_len:1_000_000 in
  Alcotest.(check bool) "uplink much slower" true (up > gbe *. 100.0)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "net"
    [
      ( "frame",
        [
          Alcotest.test_case "pack/unpack roundtrip" `Quick test_pack_unpack_roundtrip;
          Alcotest.test_case "pack rejects bad width" `Quick test_pack_rejects_bad_width;
          Alcotest.test_case "unpack rejects partial" `Quick test_unpack_rejects_partial;
          Alcotest.test_case "encrypt/decrypt roundtrip" `Quick test_encrypt_decrypt_roundtrip;
          Alcotest.test_case "idempotent flags" `Quick test_encrypt_idempotent_flags;
          Alcotest.test_case "seq separates keystreams" `Quick test_seq_separates_keystreams;
          Alcotest.test_case "payload bytes" `Quick test_payload_bytes;
        ] );
      ( "auth",
        [
          Alcotest.test_case "seal/verify roundtrip" `Quick test_seal_verify_roundtrip;
          Alcotest.test_case "encrypt then mac" `Quick test_seal_encrypt_then_mac;
          q prop_flip_one_byte_rejected;
        ] );
      ( "link",
        [
          Alcotest.test_case "transfer math" `Quick test_link_transfer;
          Alcotest.test_case "presets" `Quick test_link_presets;
        ] );
    ]
