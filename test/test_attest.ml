(* Tests for the attestation stack: bit IO, varints, Huffman, the audit
   record codec, columnar compression, the signed log, and — most
   importantly — the cloud verifier's replay, including every tampering
   scenario it must catch. *)

module Bitio = Sbt_attest.Bitio
module Varint = Sbt_attest.Varint
module Huffman = Sbt_attest.Huffman
module Record = Sbt_attest.Record
module Columnar = Sbt_attest.Columnar
module Log = Sbt_attest.Log
module V = Sbt_attest.Verifier
module P = Sbt_prim.Primitive

(* --- bit IO ---------------------------------------------------------------- *)

let test_bitio_roundtrip () =
  let w = Bitio.Writer.create () in
  Bitio.Writer.put_bits w ~value:0b101 ~bits:3;
  Bitio.Writer.put_bits w ~value:0xABCD ~bits:16;
  Bitio.Writer.put_bit w 1;
  let r = Bitio.Reader.create (Bitio.Writer.contents w) in
  Alcotest.(check int) "3 bits" 0b101 (Bitio.Reader.get_bits r 3);
  Alcotest.(check int) "16 bits" 0xABCD (Bitio.Reader.get_bits r 16);
  Alcotest.(check int) "1 bit" 1 (Bitio.Reader.get_bit r)

let test_bitio_eof () =
  let r = Bitio.Reader.create (Bytes.create 1) in
  ignore (Bitio.Reader.get_bits r 8);
  Alcotest.check_raises "eof" End_of_file (fun () -> ignore (Bitio.Reader.get_bit r))

let prop_bitio_roundtrip =
  QCheck.Test.make ~name:"bitio bit sequence roundtrip" ~count:100
    QCheck.(list (int_bound 1))
    (fun bits ->
      let w = Bitio.Writer.create () in
      List.iter (fun b -> Bitio.Writer.put_bit w b) bits;
      let r = Bitio.Reader.create (Bitio.Writer.contents w) in
      List.for_all (fun b -> Bitio.Reader.get_bit r = b) bits)

(* --- varint ---------------------------------------------------------------- *)

let test_varint_edges () =
  let roundtrip v =
    let b = Buffer.create 16 in
    Varint.write_signed b v;
    let pos = ref 0 in
    Varint.read_signed (Buffer.to_bytes b) pos
  in
  List.iter
    (fun v -> Alcotest.(check int64) (Int64.to_string v) v (roundtrip v))
    [ 0L; 1L; -1L; 127L; -128L; 300L; Int64.max_int; Int64.min_int ]

let test_varint_compactness () =
  (* Small deltas are single bytes — that is the point of delta coding. *)
  let b = Buffer.create 16 in
  Varint.write_signed b 3L;
  Alcotest.(check int) "one byte" 1 (Buffer.length b)

let prop_varint_roundtrip =
  QCheck.Test.make ~name:"varint signed roundtrip" ~count:500 QCheck.int64 (fun v ->
      let b = Buffer.create 16 in
      Varint.write_signed b v;
      let pos = ref 0 in
      Int64.equal (Varint.read_signed (Buffer.to_bytes b) pos) v)

let test_zigzag () =
  Alcotest.(check int64) "zigzag 0" 0L (Varint.zigzag 0L);
  Alcotest.(check int64) "zigzag -1" 1L (Varint.zigzag (-1L));
  Alcotest.(check int64) "zigzag 1" 2L (Varint.zigzag 1L);
  Alcotest.(check int64) "unzigzag inverse" (-42L) (Varint.unzigzag (Varint.zigzag (-42L)))

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

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "attest"
    [
      ( "bitio",
        [
          Alcotest.test_case "roundtrip" `Quick test_bitio_roundtrip;
          Alcotest.test_case "eof" `Quick test_bitio_eof;
          q prop_bitio_roundtrip;
        ] );
      ( "varint",
        [
          Alcotest.test_case "edges" `Quick test_varint_edges;
          Alcotest.test_case "compactness" `Quick test_varint_compactness;
          Alcotest.test_case "zigzag" `Quick test_zigzag;
          q prop_varint_roundtrip;
        ] );
      ( "huffman",
        [
          Alcotest.test_case "roundtrips" `Quick test_huffman_roundtrips;
          Alcotest.test_case "compresses skew" `Quick test_huffman_compresses_skew;
          q prop_huffman_roundtrip;
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
        ] );
      ( "fused-records",
        [
          Alcotest.test_case "accepts honest composite" `Quick test_verifier_accepts_fused_run;
          Alcotest.test_case "tampered chain hash" `Quick test_verifier_fused_tampered_chain;
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
    ]
