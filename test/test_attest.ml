(* Tests for the attestation stack: varints, Huffman, the audit record
   codec, columnar compression, the signed log, and — most importantly —
   the cloud verifier's replay, including every tampering scenario it
   must catch.  The codec's bytes are checked against the plain
   implementation kept in [Audit_reference]. *)

module Varint = Sbt_attest.Varint
module Huffman = Sbt_attest.Huffman
module Record = Sbt_attest.Record
module Columnar = Sbt_attest.Columnar
module Log = Sbt_attest.Log
module V = Sbt_attest.Verifier
module P = Sbt_prim.Primitive
module Ref = Audit_reference

let raises_invalid f = match f () with _ -> false | exception Invalid_argument _ -> true

(* --- varint ---------------------------------------------------------------- *)

let signed_bytes v =
  let b = Buffer.create 10 in
  Varint.write_signed b v;
  Buffer.to_bytes b

let unsigned_bytes v =
  let b = Buffer.create 10 in
  Varint.write_unsigned b v;
  Buffer.to_bytes b

let ref_bytes write v =
  let b = Buffer.create 10 in
  write b (Int64.of_int v);
  Buffer.to_bytes b

let test_varint_edges () =
  let roundtrip v = Varint.read_signed (signed_bytes v) (ref 0) in
  List.iter
    (fun v -> Alcotest.(check int) (string_of_int v) v (roundtrip v))
    [ 0; 1; -1; 127; -128; 300; max_int; min_int ];
  List.iter
    (fun v ->
      Alcotest.(check int) (string_of_int v) v (Varint.read_unsigned (unsigned_bytes v) (ref 0)))
    [ 0; 1; 127; 128; max_int ]

let test_varint_compactness () =
  (* Small deltas are single bytes — that is the point of delta coding. *)
  Alcotest.(check int) "one byte" 1 (Bytes.length (signed_bytes 3));
  Alcotest.(check int) "max_int takes 9" 9 (Bytes.length (signed_bytes max_int))

let prop_varint_roundtrip =
  QCheck.Test.make ~name:"varint signed roundtrip" ~count:500 QCheck.int (fun v ->
      let pos = ref 0 in
      let b = signed_bytes v in
      Varint.read_signed b pos = v && !pos = Bytes.length b)

(* The signed bytes are the 64-bit zigzag mapping's: 0, -1, 1, -2, ... take
   0, 1, 2, 3, ... *)
let test_zigzag () =
  List.iter
    (fun (v, z) -> Alcotest.(check string) (string_of_int v) z (Bytes.to_string (signed_bytes v)))
    [ (0, "\000"); (-1, "\001"); (1, "\002"); (-2, "\003"); (-64, "\127"); (64, "\128\001") ]

let prop_varint_matches_reference =
  QCheck.Test.make ~name:"varint bytes equal the Int64 reference" ~count:2000
    QCheck.(oneof [ int; small_signed_int; oneofl [ min_int; max_int; min_int + 1; max_int - 1 ] ])
    (fun v ->
      Bytes.equal (signed_bytes v) (ref_bytes Ref.Varint.write_signed v)
      && (v < 0 || Bytes.equal (unsigned_bytes v) (ref_bytes Ref.Varint.write_unsigned v)))

let test_varint_malformed () =
  let read f s = raises_invalid (fun () -> f (Bytes.of_string s) (ref 0)) in
  let overlong = String.make 11 '\xFF' ^ "\001" in
  Alcotest.(check bool) "overlong unsigned" true (read Varint.read_unsigned overlong);
  Alcotest.(check bool) "overlong signed" true (read Varint.read_signed overlong);
  (* Ten bytes, even when the tenth carries no bits. *)
  Alcotest.(check bool) "ten bytes" true (read Varint.read_signed (String.make 9 '\x80' ^ "\000"));
  Alcotest.(check bool) "truncated" true (read Varint.read_unsigned "\x80\x80");
  (* Nine bytes holding bit 62: fine as a zigzag value, past max_int as a count. *)
  let top = String.make 8 '\xFF' ^ "\x7F" in
  Alcotest.(check bool) "past max_int" true (read Varint.read_unsigned top);
  Alcotest.(check int) "signed min_int" min_int (Varint.read_signed (Bytes.of_string top) (ref 0));
  Alcotest.(check bool) "negative count" true
    (raises_invalid (fun () -> Varint.write_unsigned (Buffer.create 1) (-1)))

(* --- huffman ---------------------------------------------------------------- *)

let test_huffman_roundtrips () =
  let cases =
    [
      Bytes.create 0;
      Bytes.of_string "a";
      Bytes.of_string "aaaaaaaaaa";
      Bytes.of_string "abracadabra alakazam";
      Bytes.init 1000 (fun i -> Char.chr (i land 0xFF));
    ]
  in
  List.iter
    (fun b ->
      let d = Huffman.decode (Huffman.encode b) in
      Alcotest.(check string) "roundtrip" (Bytes.to_string b) (Bytes.to_string d))
    cases

let test_huffman_compresses_skew () =
  (* A heavily skewed stream (like the audit op column) must shrink. *)
  let b = Bytes.init 4000 (fun i -> if i mod 50 = 0 then 'x' else 'a') in
  let c = Huffman.encode b in
  Alcotest.(check bool) "smaller" true (Bytes.length c < Bytes.length b / 4)

let prop_huffman_roundtrip =
  QCheck.Test.make ~name:"huffman roundtrip" ~count:200 QCheck.string (fun s ->
      Bytes.to_string (Huffman.decode (Huffman.encode (Bytes.of_string s))) = s)

(* [len] bytes over [distinct] symbols spread across the byte range; with
   [skew] each draw keeps halving the range, so low symbols dominate and
   codes grow long. *)
let huffman_input ~seed ~distinct ~len ~skew =
  let rng = Sbt_crypto.Rng.create ~seed:(Int64.of_int seed) in
  let sym i = Char.chr (i * 256 / distinct) in
  let draw () =
    if not skew then Sbt_crypto.Rng.int_below rng distinct
    else begin
      let hi = ref distinct in
      while !hi > 1 && Sbt_crypto.Rng.int_below rng 3 > 0 do
        hi := (!hi + 1) / 2
      done;
      Sbt_crypto.Rng.int_below rng !hi
    end
  in
  (* Every symbol once, then random draws. *)
  Bytes.init (max len distinct) (fun i -> sym (if i < distinct then i else draw ()))

let huffman_same_bytes b =
  let e = Huffman.encode b in
  Bytes.equal e (Ref.Huffman.encode b)
  && Bytes.equal (Huffman.decode e) b
  && Bytes.equal (Ref.Huffman.decode e) b

let test_huffman_reference_cases () =
  List.iter
    (fun (name, b) -> Alcotest.(check bool) name true (huffman_same_bytes b))
    ([ ("empty", Bytes.empty); ("one symbol", Bytes.make 300 'q') ]
    @ List.concat_map
        (fun distinct ->
          List.map
            (fun skew ->
              ( Printf.sprintf "%d symbols%s" distinct (if skew then ", skewed" else ""),
                huffman_input ~seed:distinct ~distinct ~len:5000 ~skew ))
            [ false; true ])
        [ 2; 127; 128; 256 ])

let prop_huffman_matches_reference =
  QCheck.Test.make ~name:"huffman bytes equal the reference" ~count:300
    QCheck.(quad (int_range 1 256) (int_range 0 3000) bool small_nat)
    (fun (distinct, len, skew, seed) ->
      huffman_same_bytes (huffman_input ~seed ~distinct ~len ~skew))

let test_huffman_truncated () =
  let block = Huffman.encode (huffman_input ~seed:5 ~distinct:40 ~len:2000 ~skew:true) in
  let n = Bytes.length block in
  Alcotest.(check bool) "cut by 2 bytes" true
    (raises_invalid (fun () -> Huffman.decode (Bytes.sub block 0 (n - 2))));
  for k = 0 to n - 1 do
    if not (raises_invalid (fun () -> Huffman.decode (Bytes.sub block 0 k))) then
      Alcotest.failf "prefix of %d of %d bytes decoded" k n
  done

(* --- record codec ------------------------------------------------------------ *)

let sample_records =
  [
    Record.Ingress { ts = 10; uarray = 0; stream = 0; seq = 0 };
    Record.Gap
      { ts = 11; stream = 0; seq = 1; events = 500; windows = [ 0; 1 ]; reason = Record.Link_loss };
    Record.Windowing { ts = 12; data_in = 0; win_no = 0; data_out = 1 };
    Record.Windowing { ts = 12; data_in = 0; win_no = 1; data_out = 2 };
    Record.Execution { ts = 15; op = P.to_id P.Sort; inputs = [ 1 ]; outputs = [ 3 ]; hints = [ 77L ] };
    Record.Ingress_watermark { ts = 20; id = 1_000_000_000; value = 1000 };
    Record.Execution
      { ts = 25; op = P.to_id P.Sum; inputs = [ 3; 1_000_000_000 ]; outputs = [ 4 ]; hints = [] };
    Record.Egress { ts = 30; uarray = 4; win_no = 0 };
  ]

let test_record_row_roundtrip () =
  let b = Record.encode_all sample_records in
  let back = Record.decode_all b in
  Alcotest.(check int) "count" (List.length sample_records) (List.length back);
  Alcotest.(check bool) "identical" true (back = sample_records)

let test_record_bad_tag () =
  let pos = ref 0 in
  Alcotest.check_raises "bad tag" (Invalid_argument "Record.decode_row: bad tag 200") (fun () ->
      ignore (Record.decode_row (Bytes.make 20 '\xc8') pos))

let test_record_ts () =
  Alcotest.(check int) "ts of egress" 30 (Record.ts_of (Record.Egress { ts = 30; uarray = 1; win_no = 0 }))

(* --- columnar ----------------------------------------------------------------- *)

let synthetic_stream n =
  (* A realistic stream: monotonically increasing ids and timestamps,
     skewed ops - exactly what the columnar coder exploits. *)
  let records = ref [] in
  let id = ref 0 in
  let fresh () = incr id; !id in
  for w = 0 to (n / 4) - 1 do
    let batch = fresh () in
    records := Record.Ingress { ts = (w * 40) + 1; uarray = batch; stream = 0; seq = w } :: !records;
    let seg = fresh () in
    records := Record.Windowing { ts = (w * 40) + 5; data_in = batch; win_no = w; data_out = seg } :: !records;
    let sorted = fresh () in
    records :=
      Record.Execution
        { ts = (w * 40) + 9; op = P.to_id P.Sort; inputs = [ seg ]; outputs = [ sorted ]; hints = [] }
      :: !records;
    records := Record.Egress { ts = (w * 40) + 20; uarray = sorted; win_no = w } :: !records
  done;
  List.rev !records

let test_columnar_roundtrip () =
  let records = synthetic_stream 400 in
  let back = Columnar.decompress (Columnar.compress records) in
  Alcotest.(check bool) "identical" true (back = records)

let test_columnar_roundtrip_sample () =
  let back = Columnar.decompress (Columnar.compress sample_records) in
  Alcotest.(check bool) "identical" true (back = sample_records)

let test_columnar_ratio () =
  (* The paper reports 5x-6.7x on real streams; demand at least 4x on the
     synthetic stream. *)
  let records = synthetic_stream 1000 in
  let r = Columnar.ratio records in
  Alcotest.(check bool) (Printf.sprintf "ratio %.2f >= 4" r) true (r >= 4.0)

let test_columnar_empty () =
  Alcotest.(check bool) "empty" true (Columnar.decompress (Columnar.compress []) = [])

let test_columnar_wide_counts () =
  (* A window close over 300 segments: list lengths past one byte must
     survive the counts column. *)
  let records =
    [
      Record.Execution
        {
          ts = 7;
          op = P.to_id P.Sum;
          inputs = List.init 300 (fun i -> 10 + i);
          outputs = [ 400 ];
          hints = [];
        };
      Record.Gap
        {
          ts = 9;
          stream = 0;
          seq = 3;
          events = 64;
          windows = List.init 256 Fun.id;
          reason = Record.Link_loss;
        };
    ]
  in
  Alcotest.(check bool) "identical" true (Columnar.decompress (Columnar.compress records) = records)

(* Property: the columnar codec is an exact inverse on arbitrary
   well-formed record streams (random ids, timestamps, ops, arities and
   hints - not just the friendly monotonic case). *)
let prop_columnar_roundtrip_random =
  QCheck.Test.make ~name:"columnar roundtrip on random streams" ~count:60
    QCheck.(small_list (pair (int_bound 4) (int_bound 1_000_000)))
    (fun seeds ->
      let rng = Sbt_crypto.Rng.create ~seed:17L in
      let rand_int bound = Sbt_crypto.Rng.int_below rng (max 1 bound) in
      let records =
        List.map
          (fun (kind, salt) ->
            let ts = salt land 0xFFFFF in
            match kind with
            | 0 ->
                Record.Ingress
                  { ts; uarray = rand_int 1_000_000; stream = rand_int 8; seq = rand_int 100_000 }
            | 1 -> Record.Ingress_watermark { ts; id = rand_int 1_000_000; value = salt }
            | 2 ->
                Record.Windowing
                  { ts; data_in = rand_int 100_000; win_no = rand_int 65_000; data_out = rand_int 100_000 }
            | 3 ->
                Record.Execution
                  {
                    ts;
                    op = rand_int 120;
                    inputs = List.init (rand_int 5) (fun _ -> rand_int 1_000_000);
                    outputs = List.init (rand_int 3) (fun _ -> rand_int 1_000_000);
                    hints =
                      List.init (rand_int 2) (fun _ ->
                          Int64.logor
                            (Int64.shift_left (Int64.of_int (rand_int 1_000_000)) 32)
                            (Int64.of_int (rand_int 1_000_000)));
                  }
            | _ -> Record.Egress { ts; uarray = rand_int 1_000_000; win_no = rand_int 65_000 })
          seeds
      in
      Columnar.decompress (Columnar.compress records) = records)

(* Random record lists of all ten kinds, against the reference coder:
   fields swing across the whole int range (negative deltas, min_int and
   max_int watermarks), some lists run past 128 entries (two-byte counts),
   and Fused params both repeat (back-references) and change. *)
let gen_records =
  let open QCheck.Gen in
  let field =
    frequency
      [ (4, small_nat); (2, small_signed_int); (1, int); (1, oneofl [ min_int; max_int; -1 ]) ]
  in
  let ids = list_size (frequency [ (6, 0 -- 4); (1, 120 -- 300) ]) field in
  let hints = list_size (0 -- 3) ui64 in
  let byte = 0 -- 255 in
  let pool = [ Bytes.empty; Bytes.of_string "\001\002"; Bytes.make 40 '\007' ] in
  let params =
    frequency [ (3, oneofl pool); (1, map Bytes.of_string (string_size (0 -- 60))) ]
  in
  let reason =
    oneofl
      [ Record.Link_loss; Record.Corrupt_ingress; Record.Smc_unavailable; Record.Pool_pressure ]
  in
  let record =
    0 -- 9 >>= function
    | 0 ->
        map (fun (ts, uarray, stream, seq) -> Record.Ingress { ts; uarray; stream; seq })
          (quad field field field field)
    | 1 ->
        map (fun (ts, id, value) -> Record.Ingress_watermark { ts; id; value })
          (triple field field field)
    | 2 ->
        map
          (fun (ts, data_in, win_no, data_out) ->
            Record.Windowing { ts; data_in; win_no; data_out })
          (quad field field field field)
    | 3 ->
        map
          (fun ((ts, op), (inputs, outputs, hints)) ->
            Record.Execution { ts; op; inputs; outputs; hints })
          (pair (pair field byte) (triple ids ids hints))
    | 4 ->
        map (fun (ts, uarray, win_no) -> Record.Egress { ts; uarray; win_no })
          (triple field field field)
    | 5 ->
        map
          (fun ((ts, stream, seq), (events, windows, reason)) ->
            Record.Gap { ts; stream; seq; events; windows; reason })
          (pair (triple field field field) (triple field ids reason))
    | 6 ->
        map (fun (ts, seq, watermark) -> Record.Checkpoint { ts; seq; watermark })
          (triple field field field)
    | 7 ->
        map
          (fun ((ts, ops, params), (inputs, outputs, hints)) ->
            let chain = Record.chain_hash ~ops ~params in
            Record.Fused { ts; ops; params; chain; inputs; outputs; hints })
          (pair (triple field (list_size (0 -- 6) byte) params) (triple ids ids hints))
    | 8 ->
        map
          (fun (ts, uarray, win_no, events) -> Record.Late_drop { ts; uarray; win_no; events })
          (quad field field field field)
    | _ ->
        map
          (fun (ts, uarray, win_no, gen) -> Record.Correction { ts; uarray; win_no; gen })
          (quad field field field field)
  in
  list_size (frequency [ (1, return 0); (6, 1 -- 40); (2, 129 -- 300) ]) record

let prop_columnar_matches_reference =
  QCheck.Test.make ~name:"columnar bytes equal the reference" ~count:300
    (QCheck.make ~print:(fun l -> Printf.sprintf "<%d records>" (List.length l)) gen_records)
    (fun records ->
      let c = Columnar.compress records in
      Bytes.equal c (Ref.Columnar.compress records) && Columnar.decompress c = records)

(* --- log ------------------------------------------------------------------------ *)

let key = Bytes.of_string "0123456789abcdef"

let test_log_flush_and_open () =
  let log = Log.create ~key ~flush_every:1000 in
  List.iter (fun r -> ignore (Log.append log r)) sample_records;
  match Log.flush log with
  | None -> Alcotest.fail "expected a batch"
  | Some b ->
      Alcotest.(check int) "seq 0" 0 b.Log.seq;
      let back = Log.open_batch ~key b in
      Alcotest.(check bool) "records survive" true (back = sample_records);
      Alcotest.(check bool) "second flush empty" true (Log.flush log = None)

let test_log_auto_flush () =
  let log = Log.create ~key ~flush_every:3 in
  let r = Record.Ingress { ts = 1; uarray = 1; stream = 0; seq = 0 } in
  Alcotest.(check bool) "no flush yet" true (Log.append log r = None);
  ignore (Log.append log r);
  (match Log.append log r with
  | Some b -> Alcotest.(check int) "3 records" 3 (List.length (Log.open_batch ~key b))
  | None -> Alcotest.fail "expected auto flush");
  Alcotest.(check int) "records counted" 3 (Log.records_produced log)

let test_log_tamper_detected () =
  let log = Log.create ~key ~flush_every:1000 in
  List.iter (fun r -> ignore (Log.append log r)) sample_records;
  match Log.flush log with
  | None -> Alcotest.fail "expected a batch"
  | Some b ->
      let tampered = Bytes.copy b.Log.payload in
      Bytes.set tampered (Bytes.length tampered - 1)
        (Char.chr (Char.code (Bytes.get tampered (Bytes.length tampered - 1)) lxor 1));
      Alcotest.check_raises "bad mac" (Invalid_argument "Log.open_batch: MAC verification failed")
        (fun () -> ignore (Log.open_batch ~key { b with Log.payload = tampered }));
      (* Replaying a batch under a different sequence number also fails. *)
      Alcotest.check_raises "seq mismatch" (Invalid_argument "Log.open_batch: sequence number mismatch")
        (fun () -> ignore (Log.open_batch ~key { b with Log.seq = 5 }))

let test_log_wrong_key () =
  let log = Log.create ~key ~flush_every:1000 in
  ignore (Log.append log (Record.Ingress { ts = 1; uarray = 1; stream = 0; seq = 0 }));
  match Log.flush log with
  | None -> Alcotest.fail "expected a batch"
  | Some b ->
      Alcotest.check_raises "wrong key" (Invalid_argument "Log.open_batch: MAC verification failed")
        (fun () -> ignore (Log.open_batch ~key:(Bytes.make 16 'z') b))

(* --- verifier ---------------------------------------------------------------------- *)

(* A well-formed single-window run for a [Sort] batch-stage + [Sum] window
   pipeline, mirroring Listing 1 of the paper. *)
let spec =
  {
    V.batch_ops = [ P.to_id P.Sort ];
    window_ops = [ P.to_id P.Sum ];
    window_size = 1000;
    window_slide = 1000;
    freshness_bound = None;
    late_policy = 0;
    session_gap = None;
  }

let wm_id = 1_000_000_000

let good_run =
  [
    Record.Ingress { ts = 1; uarray = 0; stream = 0; seq = 0 };
    Record.Windowing { ts = 5; data_in = 0; win_no = 0; data_out = 1 };
    Record.Execution { ts = 10; op = P.to_id P.Sort; inputs = [ 1 ]; outputs = [ 3 ]; hints = [] };
    Record.Ingress_watermark { ts = 15; id = wm_id; value = 1000 };
    Record.Execution { ts = 25; op = P.to_id P.Sum; inputs = [ 3; wm_id ]; outputs = [ 5 ]; hints = [] };
    Record.Egress { ts = 30; uarray = 5; win_no = 0 };
  ]

let check_ok records =
  let r = V.verify spec records in
  if not (V.ok r) then
    Alcotest.failf "expected clean replay, got: %s"
      (Format.asprintf "%a" V.pp_report r)

let check_violation name pred records =
  let r = V.verify spec records in
  if V.ok r then Alcotest.failf "%s: expected a violation" name;
  if not (List.exists pred r.V.violations) then
    Alcotest.failf "%s: wrong violation kind: %s" name (Format.asprintf "%a" V.pp_report r)

let test_verifier_accepts_good_run () =
  check_ok good_run;
  let r = V.verify spec good_run in
  Alcotest.(check int) "one window" 1 r.V.windows_verified;
  Alcotest.(check int) "delay 15" 15 r.V.max_delay

let test_verifier_freshness () =
  let strict = { spec with V.freshness_bound = Some 10 } in
  let r = V.verify strict good_run in
  Alcotest.(check bool) "stale flagged" true
    (List.exists (function V.Stale_result { delay = 15; bound = 10; _ } -> true | _ -> false)
       r.V.violations);
  let loose = { spec with V.freshness_bound = Some 20 } in
  Alcotest.(check bool) "within bound ok" true (V.ok (V.verify loose good_run))

let test_verifier_detects_dropped_execution () =
  (* Control plane skips the Sort on the segment: window data unprocessed. *)
  let records =
    List.filter
      (function Record.Execution { op; _ } -> op <> P.to_id P.Sort | _ -> true)
      good_run
  in
  (* The Sum now references an id never produced. *)
  check_violation "dropped exec" (function V.Unknown_uarray _ -> true | _ -> false) records

let test_verifier_detects_unprocessed_window () =
  (* Sort happens but the window phase never consumes the run. *)
  let records =
    List.filter
      (function
        | Record.Execution { op; _ } when op = P.to_id P.Sum -> false
        | Record.Egress _ -> false
        | _ -> true)
      good_run
  in
  check_violation "missing egress" (function V.Missing_egress { window = 0 } -> true | _ -> false)
    records

let test_verifier_detects_wrong_op () =
  (* The control plane executes Count where the pipeline declares Sum. *)
  let records =
    List.map
      (function
        | Record.Execution { ts; op; inputs; outputs; hints } when op = P.to_id P.Sum ->
            Record.Execution { ts; op = P.to_id P.Count; inputs; outputs; hints }
        | r -> r)
      good_run
  in
  check_violation "wrong op" (function V.Window_ops_mismatch _ -> true | _ -> false) records

let test_verifier_detects_fabricated_flow () =
  let records =
    good_run
    @ [
        Record.Execution
          { ts = 40; op = P.to_id P.Sum; inputs = [ 999 ]; outputs = [ 1000 ]; hints = [] };
      ]
  in
  check_violation "fabricated" (function V.Unknown_uarray { id = 999; _ } -> true | _ -> false)
    records

let test_verifier_detects_duplicate_egress () =
  let records = good_run @ [ Record.Egress { ts = 35; uarray = 5; win_no = 0 } ] in
  check_violation "duplicate egress"
    (function V.Egress_of_non_result _ | V.Duplicate_egress _ -> true | _ -> false)
    records

let test_verifier_detects_unwindowed_batch () =
  let records = good_run @ [ Record.Ingress { ts = 50; uarray = 50; stream = 0; seq = 1 } ] in
  (* An ingested batch that never went through Windowing: data dropped. *)
  check_violation "unprocessed batch" (function V.Unprocessed_batch { id = 50 } -> true | _ -> false)
    records

let test_verifier_detects_watermark_regression () =
  let records =
    good_run @ [ Record.Ingress_watermark { ts = 60; id = wm_id + 1; value = 500 } ]
  in
  check_violation "regression" (function V.Watermark_regression _ -> true | _ -> false) records

let test_verifier_detects_double_consumption () =
  (* The same sorted run feeds two different windows' Sums: replayed as a
     second consumption of a consumed segment. *)
  let records =
    good_run
    @ [
        Record.Execution
          { ts = 70; op = P.to_id P.Sort; inputs = [ 1 ]; outputs = [ 9 ]; hints = [] };
      ]
  in
  check_violation "double consumption" (function V.Double_consumption _ -> true | _ -> false) records

let test_verifier_unprocessed_ready_data () =
  (* Two batches windowed; only one sorted run consumed by the Sum. *)
  let records =
    [
      Record.Ingress { ts = 1; uarray = 0; stream = 0; seq = 0 };
      Record.Windowing { ts = 2; data_in = 0; win_no = 0; data_out = 1 };
      Record.Ingress { ts = 3; uarray = 10; stream = 0; seq = 1 };
      Record.Windowing { ts = 4; data_in = 10; win_no = 0; data_out = 11 };
      Record.Execution { ts = 5; op = P.to_id P.Sort; inputs = [ 1 ]; outputs = [ 3 ]; hints = [] };
      Record.Execution { ts = 6; op = P.to_id P.Sort; inputs = [ 11 ]; outputs = [ 13 ]; hints = [] };
      Record.Ingress_watermark { ts = 7; id = wm_id; value = 1000 };
      Record.Execution { ts = 8; op = P.to_id P.Sum; inputs = [ 3; wm_id ]; outputs = [ 5 ]; hints = [] };
      Record.Egress { ts = 9; uarray = 5; win_no = 0 };
    ]
  in
  check_violation "partial data" (function V.Unprocessed_window_data { window = 0; _ } -> true | _ -> false)
    records

let test_verifier_misleading_hints () =
  (* Hint says 13 is consumed after 3, but 13 is consumed first. *)
  let hint = Int64.logor (Int64.shift_left (Int64.of_int 3) 32) (Int64.of_int 13) in
  let records =
    [
      Record.Ingress { ts = 1; uarray = 0; stream = 0; seq = 0 };
      Record.Windowing { ts = 2; data_in = 0; win_no = 0; data_out = 1 };
      Record.Ingress { ts = 3; uarray = 10; stream = 0; seq = 1 };
      Record.Windowing { ts = 4; data_in = 10; win_no = 0; data_out = 11 };
      Record.Execution { ts = 5; op = P.to_id P.Sort; inputs = [ 1 ]; outputs = [ 3 ]; hints = [] };
      Record.Execution { ts = 6; op = P.to_id P.Sort; inputs = [ 11 ]; outputs = [ 13 ]; hints = [ hint ] };
      Record.Ingress_watermark { ts = 7; id = wm_id; value = 1000 };
      (* consume 13 strictly before 3 *)
      Record.Execution { ts = 8; op = P.to_id P.Sum; inputs = [ 13; wm_id ]; outputs = [ 5 ]; hints = [] };
      Record.Execution { ts = 9; op = P.to_id P.Sum; inputs = [ 3 ]; outputs = [ 6 ]; hints = [] };
      Record.Egress { ts = 10; uarray = 5; win_no = 0 };
    ]
  in
  let r = V.verify { spec with V.window_ops = [ P.to_id P.Sum; P.to_id P.Sum ] } records in
  Alcotest.(check int) "one misleading hint" 1 r.V.misleading_hints;
  (* Misleading hints are warnings, not violations (paper §6.2). *)
  Alcotest.(check bool) "still correct" true (V.ok r)

let test_verifier_empty_windows_ok () =
  (* Windows the records never mention carry no obligations: the replay
     cannot (and per the stream model, must not) distinguish an empty
     window from one that never existed.  Under a halved declared window
     size, the same records cover window 0 only; window 1 is empty and
     the replay still accepts. *)
  let halved = { spec with V.window_size = 500; window_slide = 500 } in
  let r = V.verify halved good_run in
  Alcotest.(check bool) "empty windows carry no obligations" true (V.ok r);
  Alcotest.(check int) "only the populated window verified" 1 r.V.windows_verified

let test_verifier_open_window_not_flagged () =
  (* No watermark yet: nothing to verify, nothing to flag. *)
  let records =
    [
      Record.Ingress { ts = 1; uarray = 0; stream = 0; seq = 0 };
      Record.Windowing { ts = 5; data_in = 0; win_no = 0; data_out = 1 };
      Record.Execution { ts = 10; op = P.to_id P.Sort; inputs = [ 1 ]; outputs = [ 3 ]; hints = [] };
    ]
  in
  let r = V.verify spec records in
  Alcotest.(check bool) "ok" true (V.ok r);
  Alcotest.(check int) "no windows verified" 0 r.V.windows_verified

(* --- composite (fused) records ----------------------------------------------- *)

(* A run whose three batch stages execute as one fused super-kernel: one
   composite audit record claims the whole Filter∘Project∘Select chain.
   The verifier must replay it as the equivalent unfused sequence and
   reject forged compositions. *)
module F = Sbt_prim.Fused

let fused_steps =
  [
    F.F_filter_band { field = 1; lo = 0l; hi = 100l };
    F.F_project { fields = [| 0; 1; 2 |] };
    F.F_select { field = 0; value = 5l };
  ]

let fused_ops = List.map (fun s -> P.to_id (F.step_op s)) fused_steps
let fused_params = F.encode_steps fused_steps

let spec_fused =
  {
    V.batch_ops = fused_ops;
    window_ops = [ P.to_id P.Sum ];
    window_size = 1000;
    window_slide = 1000;
    freshness_bound = None;
    late_policy = 0;
    session_gap = None;
  }

let fused_record ?(ops = fused_ops) ?(params = fused_params) ?chain () =
  let chain = match chain with Some c -> c | None -> Record.chain_hash ~ops ~params in
  Record.Fused { ts = 10; ops; params; chain; inputs = [ 1 ]; outputs = [ 3 ]; hints = [] }

let fused_run fused =
  [
    Record.Ingress { ts = 1; uarray = 0; stream = 0; seq = 0 };
    Record.Windowing { ts = 5; data_in = 0; win_no = 0; data_out = 1 };
    fused;
    Record.Ingress_watermark { ts = 15; id = wm_id; value = 1000 };
    Record.Execution { ts = 25; op = P.to_id P.Sum; inputs = [ 3; wm_id ]; outputs = [ 5 ]; hints = [] };
    Record.Egress { ts = 30; uarray = 5; win_no = 0 };
  ]

let check_fused_violation name pred records =
  let r = V.verify spec_fused records in
  if V.ok r then Alcotest.failf "%s: expected a violation" name;
  if not (List.exists pred r.V.violations) then
    Alcotest.failf "%s: wrong violation kind: %s" name (Format.asprintf "%a" V.pp_report r)

let test_verifier_accepts_fused_run () =
  let r = V.verify spec_fused (fused_run (fused_record ())) in
  if not (V.ok r) then
    Alcotest.failf "expected clean replay, got: %s" (Format.asprintf "%a" V.pp_report r);
  Alcotest.(check int) "one window" 1 r.V.windows_verified

let test_verifier_fused_tampered_chain () =
  (* Flip one byte of the chain hash: the commitment no longer matches
     the claimed ops/params. *)
  let chain = Record.chain_hash ~ops:fused_ops ~params:fused_params in
  Bytes.set chain 0 (Char.chr (Char.code (Bytes.get chain 0) lxor 0x01));
  check_fused_violation "tampered chain"
    (function V.Fused_chain_mismatch _ -> true | _ -> false)
    (fused_run (fused_record ~chain ()))

(* Two segments of one window, each through the same chain.  The claim
   is derived once per (ops, params); a forged chain on the second record
   must still be caught, at its own index, and in either order. *)
let test_verifier_fused_forged_after_honest () =
  let forged = Record.chain_hash ~ops:fused_ops ~params:fused_params in
  Bytes.set forged 15 (Char.chr (Char.code (Bytes.get forged 15) lxor 0x80));
  let run first second =
    let fused ~chain ~input ~output =
      Record.Fused
        { ts = 10; ops = fused_ops; params = Bytes.copy fused_params; chain; inputs = [ input ];
          outputs = [ output ]; hints = [] }
    in
    [
      Record.Ingress { ts = 1; uarray = 0; stream = 0; seq = 0 };
      Record.Windowing { ts = 5; data_in = 0; win_no = 0; data_out = 1 };
      Record.Ingress { ts = 6; uarray = 10; stream = 0; seq = 1 };
      Record.Windowing { ts = 7; data_in = 10; win_no = 0; data_out = 11 };
      fused ~chain:first ~input:1 ~output:3;
      fused ~chain:second ~input:11 ~output:13;
      Record.Ingress_watermark { ts = 15; id = wm_id; value = 1000 };
      Record.Execution
        { ts = 25; op = P.to_id P.Sum; inputs = [ 3; 13; wm_id ]; outputs = [ 5 ]; hints = [] };
      Record.Egress { ts = 30; uarray = 5; win_no = 0 };
    ]
  in
  let honest = Record.chain_hash ~ops:fused_ops ~params:fused_params in
  let mismatches records =
    List.filter_map
      (function V.Fused_chain_mismatch { record_index } -> Some record_index | _ -> None)
      (V.verify spec_fused records).V.violations
  in
  Alcotest.(check (list int)) "honest twins" [] (mismatches (run honest honest));
  Alcotest.(check (list int)) "forged second" [ 5 ] (mismatches (run honest forged));
  Alcotest.(check (list int)) "forged first" [ 4 ] (mismatches (run forged honest))

let test_verifier_fused_non_fusable_op () =
  (* A Sort smuggled into the composite chain, with an honest hash over
     the forged ops: the type gate must flag the op itself. *)
  let ops = [ List.nth fused_ops 0; P.to_id P.Sort; List.nth fused_ops 2 ] in
  check_fused_violation "non-fusable op"
    (function V.Fused_non_fusable { op; _ } -> op = P.to_id P.Sort | _ -> false)
    (fused_run (fused_record ~ops ()))

let test_verifier_fused_reordered_chain () =
  (* Internally consistent forgery — ops, params and chain all agree —
     but the chain runs Project before Filter, against the declared
     stage order.  Only the replay against the spec catches it. *)
  let steps = [ List.nth fused_steps 1; List.nth fused_steps 0; List.nth fused_steps 2 ] in
  let ops = List.map (fun s -> P.to_id (F.step_op s)) steps in
  let params = F.encode_steps steps in
  check_fused_violation "reordered chain"
    (function V.Unexpected_batch_op _ -> true | _ -> false)
    (fused_run (fused_record ~ops ~params ()))

let test_verifier_fused_overlong_chain () =
  (* The chain claims more stages than the pipeline declares. *)
  let steps = fused_steps @ [ F.F_shift_key { field = 0; shift = 2 } ] in
  let ops = List.map (fun s -> P.to_id (F.step_op s)) steps in
  let params = F.encode_steps steps in
  check_fused_violation "overlong chain"
    (function V.Unexpected_batch_op { expected = -1; _ } -> true | _ -> false)
    (fused_run (fused_record ~ops ~params ()))

(* --- loss-aware verification -------------------------------------------------- *)

let test_gap_reason_tags () =
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Record.gap_reason_name r)
        true
        (Record.gap_reason_of_tag (Record.gap_reason_tag r) = r))
    [ Record.Link_loss; Record.Corrupt_ingress; Record.Smc_unavailable; Record.Pool_pressure ]

let test_gap_codec_roundtrip () =
  (* Every reason, empty and non-empty window lists, through both codecs. *)
  let gaps =
    List.mapi
      (fun i reason ->
        Record.Gap
          { ts = 100 + i; stream = i; seq = 7 * i; events = 1000 * i;
            windows = (if i mod 2 = 0 then [] else [ i; i + 3 ]); reason })
      [ Record.Link_loss; Record.Corrupt_ingress; Record.Smc_unavailable; Record.Pool_pressure ]
  in
  Alcotest.(check bool) "row" true (Record.decode_all (Record.encode_all gaps) = gaps);
  Alcotest.(check bool) "columnar" true (Columnar.decompress (Columnar.compress gaps) = gaps)

(* A run where frame seq 1 was lost: with a covering Gap declaration the
   verifier reports degradation and stays ok; without it, a violation. *)
let run_with_hole ~declared =
  [
    Record.Ingress { ts = 1; uarray = 0; stream = 0; seq = 0 };
    Record.Windowing { ts = 2; data_in = 0; win_no = 0; data_out = 1 };
  ]
  @ (if declared then
       [ Record.Gap
           { ts = 3; stream = 0; seq = 1; events = 800; windows = [ 0 ]; reason = Record.Link_loss } ]
     else [])
  @ [
      Record.Ingress { ts = 4; uarray = 10; stream = 0; seq = 2 };
      Record.Windowing { ts = 5; data_in = 10; win_no = 0; data_out = 11 };
      Record.Execution { ts = 6; op = P.to_id P.Sort; inputs = [ 1 ]; outputs = [ 3 ]; hints = [] };
      Record.Execution { ts = 7; op = P.to_id P.Sort; inputs = [ 11 ]; outputs = [ 13 ]; hints = [] };
      Record.Ingress_watermark { ts = 8; id = wm_id; value = 1000 };
      Record.Execution
        { ts = 9; op = P.to_id P.Sum; inputs = [ 3; 13; wm_id ]; outputs = [ 5 ]; hints = [] };
      Record.Egress { ts = 10; uarray = 5; win_no = 0 };
    ]

let test_verifier_tolerates_declared_gap () =
  let r = V.verify spec (run_with_hole ~declared:true) in
  if not (V.ok r) then
    Alcotest.failf "declared gap must degrade, not violate: %s" (Format.asprintf "%a" V.pp_report r);
  Alcotest.(check int) "one declared gap" 1 r.V.declared_gaps;
  Alcotest.(check int) "declared events" 800 r.V.gap_events;
  Alcotest.(check int) "one lost batch" 1 r.V.lost_batches;
  Alcotest.(check bool) "loss fraction positive" true (r.V.loss_fraction > 0.0);
  Alcotest.(check (list int)) "window 0 degraded" [ 0 ] r.V.degraded_windows

let test_verifier_flags_undeclared_loss () =
  check_violation "undeclared hole"
    (function V.Undeclared_loss { stream = 0; seq = 1 } -> true | _ -> false)
    (run_with_hole ~declared:false)

let test_verifier_gap_covers_missing_egress () =
  (* The whole window was lost to a declared fault: no egress is owed. *)
  let records =
    [
      Record.Ingress { ts = 1; uarray = 0; stream = 0; seq = 0 };
      Record.Windowing { ts = 2; data_in = 0; win_no = 0; data_out = 1 };
      Record.Execution { ts = 3; op = P.to_id P.Sort; inputs = [ 1 ]; outputs = [ 3 ]; hints = [] };
      Record.Gap
        { ts = 4; stream = 0; seq = 1; events = 500; windows = [ 1 ]; reason = Record.Pool_pressure };
      Record.Ingress_watermark { ts = 5; id = wm_id; value = 1000 };
      Record.Execution { ts = 6; op = P.to_id P.Sum; inputs = [ 3; wm_id ]; outputs = [ 5 ]; hints = [] };
      Record.Egress { ts = 7; uarray = 5; win_no = 0 };
      (* Watermark also closes window 1, whose only batch was shed. *)
      Record.Ingress_watermark { ts = 8; id = wm_id + 1; value = 2000 };
    ]
  in
  let r = V.verify spec records in
  if not (V.ok r) then
    Alcotest.failf "gap-covered window flagged: %s" (Format.asprintf "%a" V.pp_report r);
  Alcotest.(check (list int)) "window 1 degraded" [ 1 ] r.V.degraded_windows

let test_verifier_clean_run_reports_no_loss () =
  let r = V.verify spec good_run in
  Alcotest.(check int) "no gaps" 0 r.V.declared_gaps;
  Alcotest.(check int) "no lost batches" 0 r.V.lost_batches;
  Alcotest.(check (float 0.0)) "zero loss" 0.0 r.V.loss_fraction;
  Alcotest.(check (list int)) "no degradation" [] r.V.degraded_windows

(* --- multi-epoch stitching --------------------------------------------------- *)

module Epoch = Sbt_attest.Epoch

(* Flush [records] as a single batch whose sequence number starts at
   [from_seq] — exactly how a recovered log continues the chain. *)
let batch_at ~from_seq records =
  let log = Log.create ~key ~flush_every:1_000_000 in
  if from_seq > 0 then
    Log.restore_cursor log ~seq:from_seq ~records_produced:0;
  List.iter (fun r -> ignore (Log.append log r)) records;
  match Log.flush log with Some b -> b | None -> Alcotest.fail "expected a batch"

let manifest ~epoch ~resumed_from ~resume_batch_seq =
  Epoch.seal ~key { Epoch.epoch; resumed_from; resume_batch_seq }

(* [good_run] split at a checkpoint taken after the batch stage: epoch 0
   crashes after checkpoint 0 is durable, epoch 1 resumes from it and
   finishes the window.  Stitched, the two epochs are exactly [good_run]
   plus the Checkpoint record. *)
let epoch0_records =
  [
    Record.Ingress { ts = 1; uarray = 0; stream = 0; seq = 0 };
    Record.Windowing { ts = 5; data_in = 0; win_no = 0; data_out = 1 };
    Record.Execution { ts = 10; op = P.to_id P.Sort; inputs = [ 1 ]; outputs = [ 3 ]; hints = [] };
    Record.Checkpoint { ts = 12; seq = 0; watermark = 0 };
  ]

let epoch1_records =
  [
    Record.Ingress_watermark { ts = 15; id = wm_id; value = 1000 };
    Record.Execution { ts = 25; op = P.to_id P.Sum; inputs = [ 3; wm_id ]; outputs = [ 5 ]; hints = [] };
    Record.Egress { ts = 30; uarray = 5; win_no = 0 };
  ]

let two_epochs () =
  [
    (manifest ~epoch:0 ~resumed_from:(-1) ~resume_batch_seq:0, [ batch_at ~from_seq:0 epoch0_records ]);
    (manifest ~epoch:1 ~resumed_from:0 ~resume_batch_seq:1, [ batch_at ~from_seq:1 epoch1_records ]);
  ]

let test_epochs_accepts_honest_restart () =
  let r = V.verify_epochs ~key spec (two_epochs ()) in
  if not (V.ok r) then
    Alcotest.failf "expected clean stitch, got: %s" (Format.asprintf "%a" V.pp_report r);
  Alcotest.(check int) "one window across the restart" 1 r.V.windows_verified

let test_epochs_single_epoch_degenerates () =
  (* One fresh epoch holding all of [good_run] is just a plain verify. *)
  let segs =
    [ (manifest ~epoch:0 ~resumed_from:(-1) ~resume_batch_seq:0, [ batch_at ~from_seq:0 good_run ]) ]
  in
  Alcotest.(check bool) "ok" true (V.ok (V.verify_epochs ~key spec segs))

let test_epochs_duplicate_window () =
  (* Epoch 0 already egressed window 0 before crashing; epoch 1 replays
     and egresses it again — the same result left the TEE twice. *)
  let e0 = good_run @ [ Record.Checkpoint { ts = 31; seq = 0; watermark = 1000 } ] in
  let segs =
    [
      (manifest ~epoch:0 ~resumed_from:(-1) ~resume_batch_seq:0, [ batch_at ~from_seq:0 e0 ]);
      (manifest ~epoch:1 ~resumed_from:0 ~resume_batch_seq:1, [ batch_at ~from_seq:1 epoch1_records ]);
    ]
  in
  let r = V.verify_epochs ~key spec segs in
  Alcotest.(check bool) "duplicate window flagged" true
    (List.exists
       (function
         | V.Duplicate_window_across_epochs { window = 0; first_epoch = 0; second_epoch = 1 } -> true
         | _ -> false)
       r.V.violations)

let test_epochs_missing_epoch () =
  (* The chain presents epochs 0 and 2 — a whole boot's emissions hide
     in the hole. *)
  let segs =
    [
      (manifest ~epoch:0 ~resumed_from:(-1) ~resume_batch_seq:0, [ batch_at ~from_seq:0 epoch0_records ]);
      (manifest ~epoch:2 ~resumed_from:0 ~resume_batch_seq:1, [ batch_at ~from_seq:1 epoch1_records ]);
    ]
  in
  let r = V.verify_epochs ~key spec segs in
  Alcotest.(check bool) "missing epoch flagged" true
    (List.exists
       (function V.Missing_epoch { expected = 1; got = 2 } -> true | _ -> false)
       r.V.violations)

let test_epochs_rollback_presented_as_fresh () =
  (* Epoch 0's log attests checkpoint 0, but epoch 1 claims it booted
     fresh — i.e. the checkpoint store was rolled back (or wiped) and
     the restart is presented as a new run. *)
  let segs =
    [
      (manifest ~epoch:0 ~resumed_from:(-1) ~resume_batch_seq:0, [ batch_at ~from_seq:0 epoch0_records ]);
      (manifest ~epoch:1 ~resumed_from:(-1) ~resume_batch_seq:1, [ batch_at ~from_seq:1 epoch1_records ]);
    ]
  in
  let r = V.verify_epochs ~key spec segs in
  Alcotest.(check bool) "rollback flagged" true
    (List.exists
       (function
         | V.Checkpoint_rollback { epoch = 1; resumed_from = -1; latest = 0 } -> true
         | _ -> false)
       r.V.violations)

let test_epochs_stale_checkpoint_rollback () =
  (* Two checkpoints attested; the restart resumes from the older one. *)
  let e0 =
    epoch0_records @ [ Record.Checkpoint { ts = 13; seq = 1; watermark = 0 } ]
  in
  let segs =
    [
      (manifest ~epoch:0 ~resumed_from:(-1) ~resume_batch_seq:0, [ batch_at ~from_seq:0 e0 ]);
      (manifest ~epoch:1 ~resumed_from:0 ~resume_batch_seq:1, [ batch_at ~from_seq:1 epoch1_records ]);
    ]
  in
  let r = V.verify_epochs ~key spec segs in
  Alcotest.(check bool) "stale resume flagged" true
    (List.exists
       (function
         | V.Checkpoint_rollback { epoch = 1; resumed_from = 0; latest = 1 } -> true
         | _ -> false)
       r.V.violations)

let test_epochs_tampered_manifest_rejected () =
  let m, batches = List.hd (two_epochs ()) in
  let tampered = Bytes.copy m.Epoch.payload in
  Bytes.set tampered 0 (Char.chr (Char.code (Bytes.get tampered 0) lxor 1));
  let flagged =
    try
      ignore (V.verify_epochs ~key spec [ ({ m with Epoch.payload = tampered }, batches) ]);
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "tampered manifest rejected" true flagged

(* --- host cost of the audit path ----------------------------------------------- *)

(* Words allocated per audit record (minor + major - promoted) where the
   engine and the cloud spend them: the TEE compresses each batch, the
   cloud opens each batch, then replays the stream.  The log is a
   deterministic fps run shaped like edgebench's fps-small (16 windows of
   8,000 events in 64-event batches: 6,048 records in 39 batches).  On
   OCaml 5.1.1 they read about 61, 43 and 50; with Int64 varints, 256-entry
   code tables, a Hashtbl decoder and a verifier that hashed every Fused
   chain, 166, 134 and 155.  The bounds leave room for other compilers. *)
let words_per_record n f =
  Gc.full_major ();
  let minor0, promoted0, major0 = Gc.counters () in
  f ();
  let minor1, promoted1, major1 = Gc.counters () in
  (minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0)) /. float_of_int n

let test_audit_allocation () =
  let module B = Sbt_workloads.Benchmarks in
  let module Runtime = Sbt_core.Runtime in
  let module D = Sbt_core.Dataplane in
  let b = B.fps ~windows:16 ~events_per_window:8_000 ~batch_events:64 () in
  let cfg = Runtime.Config.make ~version:D.Clear_ingress ~deterministic:true () in
  let key = cfg.Runtime.dp_config.D.egress_key in
  let r = Runtime.run cfg b.B.pipeline (B.frames b) in
  let per_batch = List.map (Log.open_batch ~key) r.Runtime.audit in
  let records = List.concat per_batch in
  let n = List.length records in
  Alcotest.(check int) "records" 6048 n;
  List.iter
    (fun (stage, bound, f) ->
      let w = words_per_record n f in
      if w > bound then Alcotest.failf "%s: %.1f words per record (at most %.0f)" stage w bound)
    [
      ( "Columnar.compress per batch",
        75.0,
        fun () ->
          List.iter (fun rs -> ignore (Sys.opaque_identity (Columnar.compress rs))) per_batch );
      ( "Log.open_batch",
        55.0,
        fun () -> ignore (Sys.opaque_identity (List.map (Log.open_batch ~key) r.Runtime.audit)) );
      ( "Verifier.verify",
        65.0,
        fun () -> ignore (Sys.opaque_identity (V.verify r.Runtime.verifier_spec records)) );
    ]

(* The report lists its end-of-log sweeps in ascending window order,
   whatever order the verifier's tables hash in: a 16-window fps run's
   delays, and the Missing_egress violations of the same log with its
   Egress records dropped. *)
let test_verifier_report_order () =
  let module B = Sbt_workloads.Benchmarks in
  let module Runtime = Sbt_core.Runtime in
  let module D = Sbt_core.Dataplane in
  let b = B.fps ~windows:16 ~events_per_window:512 ~batch_events:64 () in
  let cfg = Runtime.Config.make ~version:D.Clear_ingress ~deterministic:true () in
  let key = cfg.Runtime.dp_config.D.egress_key in
  let r = Runtime.run cfg b.B.pipeline (B.frames b) in
  let records = List.concat_map (Log.open_batch ~key) r.Runtime.audit in
  let all = List.init 16 Fun.id in
  let rep = V.verify r.Runtime.verifier_spec records in
  Alcotest.(check (list int)) "delays by window" all (List.map fst rep.V.delays);
  let dropped = List.filter (function Record.Egress _ -> false | _ -> true) records in
  let missing =
    List.filter_map
      (function V.Missing_egress { window } -> Some window | _ -> None)
      (V.verify r.Runtime.verifier_spec dropped).V.violations
  in
  Alcotest.(check (list int)) "missing egress by window" all missing

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "attest"
    [
      ( "varint",
        [
          Alcotest.test_case "edges" `Quick test_varint_edges;
          Alcotest.test_case "compactness" `Quick test_varint_compactness;
          Alcotest.test_case "zigzag" `Quick test_zigzag;
          Alcotest.test_case "malformed rejected" `Quick test_varint_malformed;
          q prop_varint_roundtrip;
          q prop_varint_matches_reference;
        ] );
      ( "huffman",
        [
          Alcotest.test_case "roundtrips" `Quick test_huffman_roundtrips;
          Alcotest.test_case "compresses skew" `Quick test_huffman_compresses_skew;
          Alcotest.test_case "reference bytes at the header switch" `Quick
            test_huffman_reference_cases;
          Alcotest.test_case "truncated rejected" `Quick test_huffman_truncated;
          q prop_huffman_roundtrip;
          q prop_huffman_matches_reference;
        ] );
      ( "record",
        [
          Alcotest.test_case "row roundtrip" `Quick test_record_row_roundtrip;
          Alcotest.test_case "bad tag" `Quick test_record_bad_tag;
          Alcotest.test_case "ts accessor" `Quick test_record_ts;
        ] );
      ( "columnar",
        [
          Alcotest.test_case "roundtrip stream" `Quick test_columnar_roundtrip;
          Alcotest.test_case "roundtrip mixed" `Quick test_columnar_roundtrip_sample;
          Alcotest.test_case "ratio >= 4x" `Quick test_columnar_ratio;
          Alcotest.test_case "empty" `Quick test_columnar_empty;
          Alcotest.test_case "counts past one byte" `Quick test_columnar_wide_counts;
          q prop_columnar_roundtrip_random;
          q prop_columnar_matches_reference;
        ] );
      ( "log",
        [
          Alcotest.test_case "flush and open" `Quick test_log_flush_and_open;
          Alcotest.test_case "auto flush" `Quick test_log_auto_flush;
          Alcotest.test_case "tamper detected" `Quick test_log_tamper_detected;
          Alcotest.test_case "wrong key" `Quick test_log_wrong_key;
        ] );
      ( "verifier",
        [
          Alcotest.test_case "accepts good run" `Quick test_verifier_accepts_good_run;
          Alcotest.test_case "freshness bound" `Quick test_verifier_freshness;
          Alcotest.test_case "dropped execution" `Quick test_verifier_detects_dropped_execution;
          Alcotest.test_case "unprocessed window" `Quick test_verifier_detects_unprocessed_window;
          Alcotest.test_case "wrong op" `Quick test_verifier_detects_wrong_op;
          Alcotest.test_case "fabricated flow" `Quick test_verifier_detects_fabricated_flow;
          Alcotest.test_case "duplicate egress" `Quick test_verifier_detects_duplicate_egress;
          Alcotest.test_case "unwindowed batch" `Quick test_verifier_detects_unwindowed_batch;
          Alcotest.test_case "watermark regression" `Quick test_verifier_detects_watermark_regression;
          Alcotest.test_case "double consumption" `Quick test_verifier_detects_double_consumption;
          Alcotest.test_case "unprocessed ready data" `Quick test_verifier_unprocessed_ready_data;
          Alcotest.test_case "misleading hints" `Quick test_verifier_misleading_hints;
          Alcotest.test_case "empty windows ok" `Quick test_verifier_empty_windows_ok;
          Alcotest.test_case "open window not flagged" `Quick test_verifier_open_window_not_flagged;
          Alcotest.test_case "report in window order" `Quick test_verifier_report_order;
        ] );
      ( "fused-records",
        [
          Alcotest.test_case "accepts honest composite" `Quick test_verifier_accepts_fused_run;
          Alcotest.test_case "tampered chain hash" `Quick test_verifier_fused_tampered_chain;
          Alcotest.test_case "forged chain after an honest twin" `Quick
            test_verifier_fused_forged_after_honest;
          Alcotest.test_case "non-fusable op smuggled" `Quick test_verifier_fused_non_fusable_op;
          Alcotest.test_case "reordered op chain" `Quick test_verifier_fused_reordered_chain;
          Alcotest.test_case "overlong chain" `Quick test_verifier_fused_overlong_chain;
        ] );
      ( "loss-aware",
        [
          Alcotest.test_case "gap reason tags" `Quick test_gap_reason_tags;
          Alcotest.test_case "gap codec roundtrip" `Quick test_gap_codec_roundtrip;
          Alcotest.test_case "declared gap tolerated" `Quick test_verifier_tolerates_declared_gap;
          Alcotest.test_case "undeclared loss flagged" `Quick test_verifier_flags_undeclared_loss;
          Alcotest.test_case "gap covers missing egress" `Quick test_verifier_gap_covers_missing_egress;
          Alcotest.test_case "clean run no loss" `Quick test_verifier_clean_run_reports_no_loss;
        ] );
      ( "epochs",
        [
          Alcotest.test_case "honest restart accepted" `Quick test_epochs_accepts_honest_restart;
          Alcotest.test_case "single epoch = plain verify" `Quick test_epochs_single_epoch_degenerates;
          Alcotest.test_case "duplicate window across epochs" `Quick test_epochs_duplicate_window;
          Alcotest.test_case "missing epoch" `Quick test_epochs_missing_epoch;
          Alcotest.test_case "rollback presented as fresh" `Quick test_epochs_rollback_presented_as_fresh;
          Alcotest.test_case "stale checkpoint resume" `Quick test_epochs_stale_checkpoint_rollback;
          Alcotest.test_case "tampered manifest rejected" `Quick test_epochs_tampered_manifest_rejected;
        ] );
      ("audit-path", [ Alcotest.test_case "allocation per record" `Quick test_audit_allocation ]);
    ]
