(* Tests for the trusted primitives: every primitive is checked against a
   straightforward list-based reference implementation, plus qcheck
   properties for the sort/merge core. *)

module U = Sbt_umem.Uarray
module Pool = Sbt_umem.Page_pool
module Sort = Sbt_prim.Sort
module Merge = Sbt_prim.Merge
module Segment = Sbt_prim.Segment
module Agg = Sbt_prim.Agg
module Keyed = Sbt_prim.Keyed
module Join = Sbt_prim.Join
module Filter = Sbt_prim.Filter
module Misc = Sbt_prim.Misc
module P = Sbt_prim.Primitive

let pool () = Pool.create ~budget_bytes:(256 * 1024 * 1024)

let ua_of_list p ~width rows =
  let ua = U.create ~id:0 ~pool:p ~width ~capacity:(max 1 (List.length rows)) () in
  List.iter (fun r -> U.append ua (Array.of_list (List.map Int32.of_int r))) rows;
  U.produce ua;
  ua

let rows_of_ua ua =
  List.map (fun r -> Array.to_list (Array.map Int32.to_int r)) (U.to_list ua)

let fresh p ~width ~capacity = U.create ~id:99 ~pool:p ~width ~capacity ()

let random_rows ?(lo = -1000) ?(hi = 1000) ~width ~n seed =
  let rng = Sbt_crypto.Rng.create ~seed:(Int64.of_int seed) in
  List.init n (fun _ -> List.init width (fun _ -> lo + Sbt_crypto.Rng.int_below rng (hi - lo)))

(* [true] iff records are ascending by [key_field]. *)
let is_sorted ua ~key_field =
  let keys = List.map (fun r -> r.(key_field)) (U.to_list ua) in
  List.sort compare keys = keys

(* --- Sort ---------------------------------------------------------------- *)

let check_sorted_algo algo () =
  let p = pool () in
  let rows = random_rows ~width:3 ~n:5_000 1 in
  let src = ua_of_list p ~width:3 rows in
  let dst = fresh p ~width:3 ~capacity:5_000 in
  Sort.sort algo ~src ~dst ~key_field:0;
  Alcotest.(check bool) "sorted" true (is_sorted dst ~key_field:0);
  (* Same multiset of records. *)
  let norm l = List.sort compare l in
  Alcotest.(check bool) "permutation" true (norm (rows_of_ua dst) = norm rows)

let test_sort_negative_keys () =
  (* Signed order: radix must bias the top digit. *)
  let p = pool () in
  let src = ua_of_list p ~width:1 [ [ 5 ]; [ -3 ]; [ 0 ]; [ -2000000000 ]; [ 2000000000 ] ] in
  let dst = fresh p ~width:1 ~capacity:5 in
  Sort.sort Sort.Radix ~src ~dst ~key_field:0;
  Alcotest.(check (list (list int))) "signed ascending"
    [ [ -2000000000 ]; [ -3 ]; [ 0 ]; [ 5 ]; [ 2000000000 ] ]
    (rows_of_ua dst)

let test_sort_stability_radix () =
  (* Radix is stable: equal keys keep input order (checked via payload). *)
  let p = pool () in
  let rows = [ [ 1; 10 ]; [ 0; 20 ]; [ 1; 30 ]; [ 0; 40 ]; [ 1; 50 ] ] in
  let src = ua_of_list p ~width:2 rows in
  let dst = fresh p ~width:2 ~capacity:5 in
  Sort.sort Sort.Radix ~src ~dst ~key_field:0;
  Alcotest.(check (list (list int))) "stable"
    [ [ 0; 20 ]; [ 0; 40 ]; [ 1; 10 ]; [ 1; 30 ]; [ 1; 50 ] ]
    (rows_of_ua dst)

let test_sort_in_place () =
  let p = pool () in
  let ua = fresh p ~width:2 ~capacity:100 in
  let rows = random_rows ~width:2 ~n:100 3 in
  List.iter (fun r -> U.append ua (Array.of_list (List.map Int32.of_int r))) rows;
  Sort.sort_in_place Sort.Std ua ~key_field:1;
  Alcotest.(check bool) "sorted by field 1" true (is_sorted ua ~key_field:1)

(* Keys that leave 0-4 live digits (bytes on which some keys differ), so
   radix sort runs every number of scatter passes, odd ones included. *)
let gen_keys st n =
  let any () = Int32.to_int (Random.State.bits32 st) in
  let top_only low = Int32.to_int (Int32.of_int ((Random.State.int st 256 lsl 24) lor low)) in
  match Random.State.int st 6 with
  | 0 ->
      let k = any () in
      List.init n (fun _ -> k)
  | 1 -> List.init n (fun _ -> Random.State.int st 256)
  | 2 -> List.init n (fun _ -> Random.State.int st 65_536)
  | 3 -> List.init n (fun _ -> -1 - Random.State.int st 100_000)
  | 4 ->
      let low = Random.State.int st (1 lsl 24) in
      List.init n (fun _ -> top_only low)
  | _ -> List.init n (fun _ -> any ())

let prop_sort_algorithms_agree =
  QCheck.Test.make ~name:"three sorts agree" ~count:300 QCheck.(int_bound 1_000_000) (fun seed ->
      let st = Random.State.make [| seed |] in
      (* Widths 3 and 4 take the scatter's unrolled arms, the others its
         field loop. *)
      let width = 1 + Random.State.int st 6 and n = Random.State.int st 400 in
      let kf = Random.State.int st width in
      (* Every other field is a payload naming the row's input position
         and the field, so a field copied to the wrong place shows. *)
      let rows =
        List.mapi
          (fun i k -> List.init width (fun f -> if f = kf then k else (i * 8) + f))
          (gen_keys st n)
      in
      let p = pool () in
      let src = ua_of_list p ~width rows in
      let prefix = List.init (Random.State.int st 3) (fun i -> List.init width (fun _ -> -i)) in
      let out algo =
        let dst = fresh p ~width ~capacity:(List.length prefix + n) in
        List.iter (fun r -> U.append dst (Array.of_list (List.map Int32.of_int r))) prefix;
        Sort.sort algo ~src ~dst ~key_field:kf;
        rows_of_ua dst
      in
      let in_place algo =
        let ua = fresh p ~width ~capacity:(max 1 n) in
        List.iter (fun r -> U.append ua (Array.of_list (List.map Int32.of_int r))) rows;
        Sort.sort_in_place algo ua ~key_field:kf;
        rows_of_ua ua
      in
      let stable = List.stable_sort (fun a b -> compare (List.nth a kf) (List.nth b kf)) rows in
      let keys l = List.map (fun r -> List.nth r kf) l in
      (* Radix is stable; the comparison sorts agree on keys and rows. *)
      out Sort.Radix = prefix @ stable
      && in_place Sort.Radix = stable
      && List.for_all
           (fun algo ->
             let o = out algo in
             keys o = keys (prefix @ stable)
             && List.sort compare o = List.sort compare (prefix @ rows)
             && keys (in_place algo) = keys stable)
           [ Sort.Std; Sort.Qsort ])

(* The secondary order through the invoke surface: Sort with a value field
   must be the stable (key, value) sort, whatever sort the data plane is
   configured with. *)
let prop_sort_secondary_order =
  let module D = Sbt_core.Dataplane in
  QCheck.Test.make ~name:"secondary order is a stable sort" ~count:100 QCheck.(int_bound 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let n = 1 + Random.State.int st 400 in
      let keys = gen_keys st n and values = gen_keys st n in
      let rows = List.mapi (fun i (k, v) -> [ k; v; i ]) (List.combine keys values) in
      let sort_algorithm = List.nth [ Sort.Radix; Sort.Std; Sort.Qsort ] (Random.State.int st 3) in
      let cfg = D.Config.make ~version:D.Clear_ingress ~secure_mb:16 ~sort_algorithm () in
      let dp = D.create cfg in
      let events = Array.of_list (List.map (fun r -> Array.of_list (List.map Int32.of_int r)) rows) in
      let payload = Sbt_net.Frame.pack_events ~width:3 events in
      let ingest = D.R_ingest_events { payload; encrypted = false; stream = 0; seq = 0;
                                       mac = Bytes.empty; windowing = None } in
      let input =
        match D.call dp ingest with
        | D.Rs_ingested { outs = [ out ]; _ } -> out.D.ref_
        | _ -> assert false
      in
      let chain = [ (P.Sort, [ D.P_key_field 0; D.P_value_field 1 ]) ] in
      let invoke = D.R_invoke { chain; inputs = [ input ]; trigger = None; hints = []; retire_inputs = true } in
      let out =
        match D.call dp invoke with
        | D.Rs_outputs [ o ] -> o.D.ref_
        | _ -> assert false
      in
      let got =
        match D.call dp (D.R_egress { input = out; window = 0 }) with
        | D.Rs_egress sealed -> D.open_result ~egress_key:cfg.D.egress_key sealed
        | _ -> assert false
      in
      let key_value r = (List.nth r 0, List.nth r 1) in
      let expected = List.stable_sort (fun a b -> compare (key_value a) (key_value b)) rows in
      List.map (fun r -> Array.to_list (Array.map Int32.to_int r)) (Array.to_list got) = expected)

(* --- Merge --------------------------------------------------------------- *)

let test_merge2 () =
  let p = pool () in
  let a = ua_of_list p ~width:2 [ [ 1; 0 ]; [ 3; 0 ]; [ 5; 0 ] ] in
  let b = ua_of_list p ~width:2 [ [ 2; 1 ]; [ 3; 1 ]; [ 9; 1 ] ] in
  let dst = fresh p ~width:2 ~capacity:6 in
  Merge.merge2 ~a ~b ~dst ~key_field:0;
  Alcotest.(check (list (list int))) "merged, ties a-first"
    [ [ 1; 0 ]; [ 2; 1 ]; [ 3; 0 ]; [ 3; 1 ]; [ 5; 0 ]; [ 9; 1 ] ]
    (rows_of_ua dst)

let test_kway_merge () =
  let p = pool () in
  let inputs =
    List.init 7 (fun i ->
        let rows = List.sort compare (random_rows ~width:1 ~n:(50 + (i * 13)) (i + 10)) in
        ua_of_list p ~width:1 rows)
  in
  let total = List.fold_left (fun acc ua -> acc + U.length ua) 0 inputs in
  let dst = fresh p ~width:1 ~capacity:total in
  Merge.kway ~inputs ~dst ~key_field:0;
  Alcotest.(check int) "total" total (U.length dst);
  Alcotest.(check bool) "sorted" true (is_sorted dst ~key_field:0)

(* Keys per input: long runs, singletons, all equal, negative, or the
   int32 extremes. *)
let gen_kway_keys st n =
  let pick l = List.nth l (Random.State.int st (List.length l)) in
  let any () = Int32.to_int (Random.State.bits32 st) in
  match Random.State.int st 6 with
  | 0 -> List.init n (fun _ -> Random.State.int st 3)
  | 1 -> List.init n (fun _ -> any ())
  | 2 -> List.init n (fun _ -> 7)
  | 3 -> List.init n (fun _ -> -1 - Random.State.int st 50)
  | 4 ->
      let ext = [ Int32.to_int Int32.min_int; Int32.to_int Int32.max_int; -1; 0 ] in
      List.init n (fun _ -> pick ext)
  | _ -> List.init n (fun _ -> pick [ any (); Random.State.int st 5 ])

(* Kway against the stable sort of the inputs' concatenation: every row
   exactly once, ties in input order. *)
let prop_kway_reference =
  QCheck.Test.make ~name:"kway equals the stable sort of its inputs" ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      (* Widths 3 and 4 take the run copy's unrolled arms, the others its
         field loop. *)
      let width = 1 + Random.State.int st 6 and k = Random.State.int st 41 in
      let kf = Random.State.int st width in
      let key r = List.nth r kf in
      (* Non-key fields carry (input, position), the first as one id, then
         values that differ from them and from each other. *)
      let row i pos kv =
        let other = [ (i * 1000) + pos; i; pos; -1 - i; -1 - pos ] in
        List.init width (fun f -> if f = kf then kv else List.nth other (f - Bool.to_int (f > kf)))
      in
      let inputs =
        List.init k (fun i ->
            let n = if Random.State.int st 4 = 0 then 0 else Random.State.int st 60 in
            let keys = List.sort compare (gen_kway_keys st n) in
            List.mapi (fun pos kv -> row i pos kv) keys)
      in
      let p = pool () in
      let uas = List.map (ua_of_list p ~width) inputs in
      let total = List.length (List.concat inputs) in
      let prefix = List.init (Random.State.int st 3) (fun i -> List.init width (fun _ -> -i)) in
      let dst ~width ~capacity ~prefix =
        let d = fresh p ~width ~capacity in
        List.iter (fun r -> U.append d (Array.of_list (List.map Int32.of_int r))) prefix;
        d
      in
      let merged ?(prefix = prefix) ~width capacity =
        let d = dst ~width ~capacity ~prefix in
        match Merge.kway ~inputs:uas ~dst:d ~key_field:kf with
        | () -> Ok (rows_of_ua d)
        | exception e -> Error (e, rows_of_ua d)
      in
      let expected = List.stable_sort (fun a b -> compare (key a) (key b)) (List.concat inputs) in
      let n = List.length prefix + total in
      merged ~width n = Ok (prefix @ expected)
      (* One record short: Full, with nothing written. *)
      && (total = 0
         || match merged ~width (n - 1) with Error (U.Full _, rows) -> rows = prefix | _ -> false)
      (* Another width: rejected, whatever the input count. *)
      && (k = 0
         ||
         match merged ~prefix:[] ~width:(width + 1) total with
         | Error (Invalid_argument _, []) -> true
         | _ -> false))

let test_kway_single_input () =
  let p = pool () in
  let only = ua_of_list p ~width:1 [ [ 1 ]; [ 2 ] ] in
  let dst = fresh p ~width:1 ~capacity:2 in
  Merge.kway ~inputs:[ only ] ~dst ~key_field:0;
  Alcotest.(check int) "copied" 2 (U.length dst)

(* --- Segment --------------------------------------------------------------- *)

let test_segment_counts_and_routing () =
  let p = pool () in
  (* ts field 1, window 100 ticks: windows 0,0,1,2,2,2 *)
  let src = ua_of_list p ~width:2 [ [ 1; 5 ]; [ 2; 99 ]; [ 3; 100 ]; [ 4; 200 ]; [ 5; 250 ]; [ 6; 299 ] ] in
  let counts = Segment.count_per_window ~src ~ts_field:1 ~window_size:100 () in
  Alcotest.(check (list (pair int int))) "counts" [ (0, 2); (1, 1); (2, 3) ] counts;
  let dsts = Hashtbl.create 4 in
  Segment.segment ~src ~ts_field:1 ~window_size:100
    ~dst_for_window:(fun w ->
      let d = fresh p ~width:2 ~capacity:3 in
      Hashtbl.replace dsts w d;
      d)
    ();
  Alcotest.(check int) "window 0" 2 (U.length (Hashtbl.find dsts 0));
  Alcotest.(check int) "window 2" 3 (U.length (Hashtbl.find dsts 2));
  Alcotest.(check int32) "routing keeps fields" 4l (U.get_field (Hashtbl.find dsts 2) 0 0)

let test_segment_negative_timestamps () =
  (* ts in (-slide, 0) lands in window 0 alone; ts <= -slide in none. *)
  let p = pool () in
  let src = ua_of_list p ~width:1 [ [ -1 ]; [ -49 ]; [ -50 ]; [ -99 ]; [ -100 ]; [ -250 ]; [ 10 ] ] in
  Alcotest.(check (list (pair int int))) "tumbling" [ (0, 5) ]
    (Segment.count_per_window ~src ~ts_field:0 ~window_size:100 ());
  Alcotest.(check (list (pair int int))) "sliding" [ (0, 3) ]
    (Segment.count_per_window ~src ~ts_field:0 ~window_size:100 ~slide:50 ())

(* Per-record reference: the window range of each record, with one
   division pair per record and no runs. *)
let ref_windows ~ts ~size ~slide =
  let d = ts - size in
  ((if d < 0 then 0 else (d / slide) + 1), ts / slide)

(* (window, rows in input order), windows in order of first use. *)
let ref_segment rows ~tf ~size ~slide =
  let tbl = Hashtbl.create 8 and order = ref [] in
  List.iter
    (fun row ->
      let lo, hi = ref_windows ~ts:(List.nth row tf) ~size ~slide in
      for win = lo to hi do
        match Hashtbl.find_opt tbl win with
        | Some l -> Hashtbl.replace tbl win (row :: l)
        | None ->
            order := win :: !order;
            Hashtbl.replace tbl win [ row ]
      done)
    rows;
  List.rev_map (fun win -> (win, List.rev (Hashtbl.find tbl win))) !order

(* Timestamps in order, shuffled, disordered, spread over many windows,
   mostly negative, or anywhere in int32. *)
let gen_timestamps st ~n ~size =
  let size = min size 0x8000_0000 in
  let clamp t = max (-0x8000_0000) (min 0x7FFF_FFFF t) in
  let int_in lo hi = lo + Random.State.full_int st (max 1 (hi - lo + 1)) in
  let step = List.nth [ 0; 1; size / 10; size; 3 * size ] (Random.State.int st 5) in
  let in_order () =
    let t = ref (int_in (-2 * size) (5 * size)) in
    List.init n (fun _ ->
        t := !t + int_in 0 step;
        clamp !t)
  in
  let shuffle l =
    let a = Array.of_list l in
    for i = Array.length a - 1 downto 1 do
      let j = Random.State.int st (i + 1) in
      let x = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- x
    done;
    Array.to_list a
  in
  match Random.State.int st 6 with
  | 0 -> in_order ()
  | 1 -> shuffle (in_order ())
  | 2 ->
      let a = Array.of_list (in_order ()) in
      for _ = 1 to n / 10 do
        let i = Random.State.int st n and j = Random.State.int st n in
        let x = a.(i) in
        a.(i) <- a.(j);
        a.(j) <- x
      done;
      Array.to_list a
  | 3 -> List.init n (fun _ -> clamp (int_in (-2 * size) (200 * size)))
  | 4 -> List.init n (fun _ -> clamp (int_in (-3 * size) (size / 2)))
  | _ -> List.init n (fun _ -> Int32.to_int (Random.State.bits32 st))

let prop_segment_equals_per_record =
  QCheck.Test.make ~name:"equals the per-record reference" ~count:300 QCheck.(int_bound 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let width = 1 + Random.State.int st 5 and n = Random.State.int st 3_001 in
      let tf = Random.State.int st width in
      (* Mostly small windows; now and then sizes past 32 bits, or so
         large that [ts - size] wraps for negative timestamps. *)
      let size =
        match Random.State.int st 20 with
        | 0 -> (1 lsl 33) + Random.State.int st 1_000
        | 1 -> max_int - Random.State.full_int st 0x8000_0000
        | _ -> 1 + Random.State.int st 300
      in
      let slide =
        match Random.State.int st 4 with
        | 0 | 1 -> size
        | 2 -> max 1 (size / 6) + Random.State.full_int st (size - max 1 (size / 6) + 1)
        | _ -> if size > 1 lsl 40 then size else size + 1 + Random.State.full_int st size
      in
      let rows =
        List.map
          (fun ts -> List.init width (fun f -> if f = tf then ts else Random.State.int st 1_000))
          (gen_timestamps st ~n ~size)
      in
      let p = pool () in
      let src = ua_of_list p ~width rows in
      let expected = ref_segment rows ~tf ~size ~slide in
      let counts = Segment.count_per_window ~src ~ts_field:tf ~window_size:size ~slide () in
      let ref_counts = List.sort compare (List.map (fun (w, l) -> (w, List.length l)) expected) in
      let count = Hashtbl.create 8 in
      List.iter (fun (w, l) -> Hashtbl.replace count w (List.length l)) expected;
      (* Route into exact destinations, or shrink one by a record. *)
      let route ~short =
        let calls = ref [] in
        Segment.segment ~src ~ts_field:tf ~window_size:size ~slide
          ~dst_for_window:(fun w ->
            let cap = Hashtbl.find count w - if w = short then 1 else 0 in
            let d = fresh p ~width ~capacity:cap in
            calls := (w, d) :: !calls;
            d)
          ();
        List.rev_map (fun (w, d) -> (w, rows_of_ua d)) !calls
      in
      let undersized_raises =
        match expected with
        | [] -> true
        | _ -> (
            let short = fst (List.nth expected (Random.State.int st (List.length expected))) in
            match route ~short with _ -> false | exception U.Full _ -> true)
      in
      counts = ref_counts && route ~short:min_int = expected && undersized_raises)

(* --- Aggregations ------------------------------------------------------------ *)

let test_agg_whole_array () =
  let p = pool () in
  let src = ua_of_list p ~width:2 [ [ 1; 10 ]; [ 2; -5 ]; [ 3; 7 ] ] in
  Alcotest.(check int64) "sum" 12L (Agg.sum src ~field:1);
  Alcotest.(check int) "count" 3 (Agg.count src);
  let s, n = Agg.sum_count src ~field:1 in
  Alcotest.(check int64) "sumcnt sum" 12L s;
  Alcotest.(check int) "sumcnt n" 3 n;
  Alcotest.(check (float 0.001)) "avg" 4.0 (Agg.average src ~field:1);
  (match Agg.min_max src ~field:1 with
  | Some (lo, hi) ->
      Alcotest.(check int32) "min" (-5l) lo;
      Alcotest.(check int32) "max" 10l hi
  | None -> Alcotest.fail "min_max");
  (match Agg.median src ~field:1 with
  | Some m -> Alcotest.(check int32) "median" 7l m
  | None -> Alcotest.fail "median")

let test_agg_empty () =
  let p = pool () in
  let src = ua_of_list p ~width:1 [] in
  Alcotest.(check int64) "sum 0" 0L (Agg.sum src ~field:0);
  Alcotest.(check (float 0.0)) "avg 0" 0.0 (Agg.average src ~field:0);
  Alcotest.(check bool) "no minmax" true (Agg.min_max src ~field:0 = None);
  Alcotest.(check bool) "no median" true (Agg.median src ~field:0 = None)

let test_agg_sum_overflow_safe () =
  let p = pool () in
  let rows = List.init 10 (fun _ -> [ 2_000_000_000 ]) in
  let src = ua_of_list p ~width:1 rows in
  Alcotest.(check int64) "64-bit sum" 20_000_000_000L (Agg.sum src ~field:0)

(* --- Keyed -------------------------------------------------------------------- *)

let sorted_kv p rows = ua_of_list p ~width:2 (List.sort compare rows)

let reference_groups rows =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun r ->
      match r with
      | [ k; v ] -> Hashtbl.replace tbl k (v :: Option.value ~default:[] (Hashtbl.find_opt tbl k))
      | _ -> assert false)
    rows;
  List.sort compare (Hashtbl.fold (fun k vs acc -> (k, List.rev vs) :: acc) tbl [])

let test_keyed_against_reference () =
  let p = pool () in
  let rows = random_rows ~lo:0 ~hi:20 ~width:2 ~n:500 42 in
  let src = sorted_kv p rows in
  let groups = reference_groups rows in
  let expect f = List.map (fun (k, vs) -> [ k; f vs ]) groups in
  let run op =
    let dst = fresh p ~width:2 ~capacity:(List.length groups * 10) in
    op ~src ~dst;
    rows_of_ua dst
  in
  Alcotest.(check int) "group_count" (List.length groups) (Keyed.group_count ~src ~key_field:0);
  Alcotest.(check (list (list int))) "sum_per_key"
    (expect (fun vs -> List.fold_left ( + ) 0 vs))
    (run (fun ~src ~dst -> Keyed.sum_per_key ~src ~dst ~key_field:0 ~value_field:1));
  Alcotest.(check (list (list int))) "count_per_key"
    (expect List.length)
    (run (fun ~src ~dst -> Keyed.count_per_key ~src ~dst ~key_field:0));
  Alcotest.(check (list (list int))) "avg_per_key"
    (expect (fun vs ->
         let s = List.fold_left ( + ) 0 vs in
         Int64.to_int (Int64.div (Int64.of_int s) (Int64.of_int (List.length vs)))))
    (run (fun ~src ~dst -> Keyed.avg_per_key ~src ~dst ~key_field:0 ~value_field:1));
  Alcotest.(check (list (list int))) "median_per_key"
    (expect (fun vs ->
         let a = Array.of_list vs in
         Array.sort compare a;
         a.((Array.length a - 1) / 2)))
    (run (fun ~src ~dst -> Keyed.median_per_key ~src ~dst ~key_field:0 ~value_field:1));
  Alcotest.(check (list (list int))) "distinct_keys"
    (List.map (fun (k, _) -> [ k; 1 ]) groups)
    (run (fun ~src ~dst -> Keyed.distinct_keys ~src ~dst ~key_field:0))

let test_topk_per_key () =
  let p = pool () in
  let rows = [ [ 1; 5 ]; [ 1; 9 ]; [ 1; 1 ]; [ 2; 4 ]; [ 2; 8 ]; [ 2; 6 ]; [ 2; 7 ] ] in
  let src = sorted_kv p rows in
  let dst = fresh p ~width:2 ~capacity:8 in
  Keyed.topk_per_key ~src ~dst ~key_field:0 ~value_field:1 ~k:2;
  Alcotest.(check (list (list int))) "top 2 per key, descending"
    [ [ 1; 9 ]; [ 1; 5 ]; [ 2; 8 ]; [ 2; 7 ] ]
    (rows_of_ua dst)

(* --- Join ---------------------------------------------------------------------- *)

(* Nested loops over the key-sorted inputs: rows come out ordered by key,
   then left position, then right position. *)
let reference_join ~kf ~vf left right =
  List.concat_map
    (fun l ->
      List.filter_map
        (fun r ->
          if List.nth l kf = List.nth r kf then Some [ List.nth l kf; List.nth l vf; List.nth r vf ]
          else None)
        right)
    left

let join_rows p ~kf ~vf left right =
  let runs = Join.runs ~left ~right ~key_field:kf in
  let dst = fresh p ~width:3 ~capacity:(Join.size runs) in
  Join.fill runs ~dst ~value_field:vf;
  (Join.size runs, rows_of_ua dst)

let test_join_against_reference () =
  let p = pool () in
  let lrows = List.sort compare (random_rows ~lo:0 ~hi:15 ~width:2 ~n:60 7) in
  let rrows = List.sort compare (random_rows ~lo:0 ~hi:15 ~width:2 ~n:50 8) in
  let expected = reference_join ~kf:0 ~vf:1 lrows rrows in
  let n, rows = join_rows p ~kf:0 ~vf:1 (ua_of_list p ~width:2 lrows) (ua_of_list p ~width:2 rrows) in
  Alcotest.(check int) "size" (List.length expected) n;
  Alcotest.(check (list (list int))) "join rows" expected rows

let test_join_disjoint () =
  let p = pool () in
  let left = sorted_kv p [ [ 1; 1 ]; [ 2; 2 ] ] in
  let right = sorted_kv p [ [ 3; 3 ]; [ 4; 4 ] ] in
  Alcotest.(check int) "no matches" 0 (Join.size (Join.runs ~left ~right ~key_field:0))

(* The emission order, unsorted, against the nested-loop reference, over
   duplicate-heavy, disjoint, one-sided and random keys and unequal
   input widths. *)
let prop_join_emission_order =
  QCheck.Test.make ~name:"join emits in key, left, right order" ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let wl = 2 + Random.State.int st 3 and wr = 2 + Random.State.int st 3 in
      let kf = Random.State.int st 2 in
      let vf = 1 - kf in
      let mode = Random.State.int st 4 in
      let side ~width ~parity =
        let n = if mode = 2 && parity = 1 then 0 else Random.State.int st 80 in
        let key () =
          match mode with
          | 0 -> Random.State.int st 3
          | 1 -> (2 * Random.State.int st 20) + parity
          | _ -> Int32.to_int (Random.State.bits32 st) asr (Random.State.int st 32)
        in
        let rows =
          List.init n (fun pos ->
              let k = key () in
              List.init width (fun f -> if f = kf then k else (pos * 10) + f))
        in
        List.stable_sort (fun a b -> compare (List.nth a kf) (List.nth b kf)) rows
      in
      let lrows = side ~width:wl ~parity:0 and rrows = side ~width:wr ~parity:1 in
      let p = pool () in
      let expected = reference_join ~kf ~vf lrows rrows in
      let left = ua_of_list p ~width:wl lrows and right = ua_of_list p ~width:wr rrows in
      join_rows p ~kf ~vf left right = (List.length expected, expected))

(* --- Filter / Select / Misc ------------------------------------------------------ *)

let test_filter_band () =
  let p = pool () in
  let rows = random_rows ~width:2 ~n:300 9 in
  let src = ua_of_list p ~width:2 rows in
  let expected = List.filter (fun r -> List.nth r 1 >= -100 && List.nth r 1 <= 100) rows in
  let n = Filter.count_in_band ~src ~field:1 ~lo:(-100l) ~hi:100l in
  Alcotest.(check int) "count" (List.length expected) n;
  let dst = fresh p ~width:2 ~capacity:n in
  Filter.filter_band ~src ~dst ~field:1 ~lo:(-100l) ~hi:100l;
  Alcotest.(check (list (list int))) "kept order" expected (rows_of_ua dst)

let test_select_eq () =
  let p = pool () in
  let src = ua_of_list p ~width:2 [ [ 1; 7 ]; [ 2; 8 ]; [ 1; 9 ] ] in
  let dst = fresh p ~width:2 ~capacity:2 in
  Filter.select_eq ~src ~dst ~field:0 ~value:1l;
  Alcotest.(check (list (list int))) "selected" [ [ 1; 7 ]; [ 1; 9 ] ] (rows_of_ua dst)

let test_sample_stride () =
  let p = pool () in
  let src = ua_of_list p ~width:1 (List.init 10 (fun i -> [ i ])) in
  let dst = fresh p ~width:1 ~capacity:4 in
  Filter.sample_stride ~src ~dst ~stride:3;
  Alcotest.(check (list (list int))) "every 3rd" [ [ 0 ]; [ 3 ]; [ 6 ]; [ 9 ] ] (rows_of_ua dst)

let test_concat_and_project () =
  let p = pool () in
  let a = ua_of_list p ~width:3 [ [ 1; 2; 3 ] ] in
  let b = ua_of_list p ~width:3 [ [ 4; 5; 6 ]; [ 7; 8; 9 ] ] in
  let cat = fresh p ~width:3 ~capacity:3 in
  Misc.concat ~inputs:[ a; b ] ~dst:cat;
  Alcotest.(check (list (list int))) "concat" [ [ 1; 2; 3 ]; [ 4; 5; 6 ]; [ 7; 8; 9 ] ] (rows_of_ua cat);
  U.produce cat;
  let proj = fresh p ~width:2 ~capacity:3 in
  Misc.project ~src:cat ~dst:proj ~fields:[| 2; 0 |];
  Alcotest.(check (list (list int))) "project reorders" [ [ 3; 1 ]; [ 6; 4 ]; [ 9; 7 ] ] (rows_of_ua proj)

let test_top_k_records () =
  let p = pool () in
  let src = ua_of_list p ~width:2 [ [ 1; 5 ]; [ 2; 9 ]; [ 3; 1 ]; [ 4; 7 ] ] in
  let dst = fresh p ~width:2 ~capacity:2 in
  Misc.top_k_records ~src ~dst ~field:1 ~k:2;
  Alcotest.(check (list (list int))) "top 2 by value" [ [ 2; 9 ]; [ 4; 7 ] ] (rows_of_ua dst)

let test_shift_key () =
  let p = pool () in
  let src = ua_of_list p ~width:2 [ [ 258; 7 ]; [ 515; 8 ] ] in
  (* 258 = 1*256+2 -> house 1; 515 = 2*256+3 -> house 2 *)
  let dst = fresh p ~width:2 ~capacity:2 in
  Misc.shift_key ~src ~dst ~field:0 ~shift:8;
  Alcotest.(check (list (list int))) "houses" [ [ 1; 7 ]; [ 2; 8 ] ] (rows_of_ua dst)

(* --- fused super-kernel (PR 7) ----------------------------------------------------- *)

module F = Sbt_prim.Fused

let fused_chain =
  [
    F.F_filter_band { field = 1; lo = -400l; hi = 400l };
    F.F_shift_key { field = 0; shift = 3 };
    F.F_project { fields = [| 1; 0 |] };
    F.F_select { field = 1; value = 12l };
  ]

let test_fused_equals_unfused_sequence () =
  (* The fused chain kernel must be byte-identical to running the four
     primitives one after another. *)
  let p = pool () in
  let rows = random_rows ~width:3 ~n:2_000 77 in
  let src = ua_of_list p ~width:3 rows in
  (* Reference: the unfused sequence. *)
  let s1 = fresh p ~width:3 ~capacity:2_000 in
  Filter.filter_band ~src ~dst:s1 ~field:1 ~lo:(-400l) ~hi:400l;
  U.produce s1;
  let s2 = fresh p ~width:3 ~capacity:(U.length s1) in
  Misc.shift_key ~src:s1 ~dst:s2 ~field:0 ~shift:3;
  U.produce s2;
  let s3 = fresh p ~width:2 ~capacity:(U.length s2) in
  Misc.project ~src:s2 ~dst:s3 ~fields:[| 1; 0 |];
  U.produce s3;
  let s4 = fresh p ~width:2 ~capacity:(U.length s3) in
  Filter.select_eq ~src:s3 ~dst:s4 ~field:1 ~value:12l;
  U.produce s4;
  let dst =
    F.run ~steps:fused_chain ~src ~alloc:(fun n -> U.create ~id:7 ~pool:p ~width:2 ~capacity:n ())
  in
  Alcotest.(check (list (list int))) "identical to unfused" (rows_of_ua s4) (rows_of_ua dst)

let test_fused_steps_codec () =
  (match F.decode_steps (F.encode_steps fused_chain) with
  | Some steps -> Alcotest.(check bool) "roundtrip" true (steps = fused_chain)
  | None -> Alcotest.fail "decode failed");
  Alcotest.(check bool) "garbage rejected" true
    (F.decode_steps (Bytes.of_string "\255nonsense") = None);
  Alcotest.(check bool) "empty rejected" true (F.decode_steps Bytes.empty = None)

let test_fused_width_tracking () =
  Alcotest.(check (option int)) "3 -> 2 through project" (Some 2) (F.width_after 3 fused_chain);
  Alcotest.(check (option int)) "field out of width is invalid" None
    (F.width_after 1 fused_chain)

(* --- registry --------------------------------------------------------------------- *)

let test_registry () =
  Alcotest.(check int) "exactly 23 primitives" 23 P.count;
  List.iteri
    (fun i prim ->
      Alcotest.(check int) "stable id" i (P.to_id prim);
      Alcotest.(check bool) "of_id roundtrip" true (P.of_id i = Some prim);
      Alcotest.(check bool) "of_name roundtrip" true (P.of_name (P.name prim) = Some prim))
    P.all;
  Alcotest.(check bool) "of_id out of range" true (P.of_id 23 = None);
  (* Pseudo-ids for audit records must not collide with primitive ids. *)
  Alcotest.(check bool) "pseudo ids distinct" true
    (P.ingress_id >= P.count && P.egress_id >= P.count && P.windowing_id >= P.count)

let test_of_name_total () =
  (* [of_name] is total: unknown and near-miss names return [None], never
     raise.  Names are exact (case-sensitive) matches. *)
  List.iter
    (fun s -> Alcotest.(check bool) (Printf.sprintf "%S unknown" s) true (P.of_name s = None))
    [ ""; "nope"; "sort"; "SORT"; " Sort"; "Sort "; "Sort2"; "Fused" ]

let test_fusable_ops () =
  let fusable = [ P.Filter_band; P.Select; P.Project; P.Shift_key ] in
  List.iter
    (fun prim ->
      Alcotest.(check bool) (P.name prim) (List.mem prim fusable) (P.fusable prim))
    P.all

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "prim"
    [
      ( "sort",
        [
          Alcotest.test_case "radix correct" `Quick (check_sorted_algo Sort.Radix);
          Alcotest.test_case "std correct" `Quick (check_sorted_algo Sort.Std);
          Alcotest.test_case "qsort correct" `Quick (check_sorted_algo Sort.Qsort);
          Alcotest.test_case "negative keys" `Quick test_sort_negative_keys;
          Alcotest.test_case "radix stability" `Quick test_sort_stability_radix;
          Alcotest.test_case "in place" `Quick test_sort_in_place;
          q prop_sort_algorithms_agree;
          q prop_sort_secondary_order;
        ] );
      ( "merge",
        [
          Alcotest.test_case "merge2" `Quick test_merge2;
          Alcotest.test_case "kway" `Quick test_kway_merge;
          Alcotest.test_case "kway single" `Quick test_kway_single_input;
          q prop_kway_reference;
        ] );
      ( "segment",
        [
          Alcotest.test_case "counts and routing" `Quick test_segment_counts_and_routing;
          Alcotest.test_case "negative timestamps" `Quick test_segment_negative_timestamps;
          q prop_segment_equals_per_record;
        ] );
      ( "agg",
        [
          Alcotest.test_case "whole array" `Quick test_agg_whole_array;
          Alcotest.test_case "empty" `Quick test_agg_empty;
          Alcotest.test_case "64-bit sums" `Quick test_agg_sum_overflow_safe;
        ] );
      ( "keyed",
        [
          Alcotest.test_case "against reference" `Quick test_keyed_against_reference;
          Alcotest.test_case "topk per key" `Quick test_topk_per_key;
        ] );
      ( "join",
        [
          Alcotest.test_case "against reference" `Quick test_join_against_reference;
          Alcotest.test_case "disjoint keys" `Quick test_join_disjoint;
          q prop_join_emission_order;
        ] );
      ( "filter-misc",
        [
          Alcotest.test_case "filter band" `Quick test_filter_band;
          Alcotest.test_case "select eq" `Quick test_select_eq;
          Alcotest.test_case "sample stride" `Quick test_sample_stride;
          Alcotest.test_case "concat and project" `Quick test_concat_and_project;
          Alcotest.test_case "top k records" `Quick test_top_k_records;
          Alcotest.test_case "shift key" `Quick test_shift_key;
        ] );
      ( "fused",
        [
          Alcotest.test_case "equals unfused sequence" `Quick test_fused_equals_unfused_sequence;
          Alcotest.test_case "steps codec" `Quick test_fused_steps_codec;
          Alcotest.test_case "width tracking" `Quick test_fused_width_tracking;
        ] );
      ( "registry",
        [
          Alcotest.test_case "ids names pseudo-ops" `Quick test_registry;
          Alcotest.test_case "of_name total" `Quick test_of_name_total;
          Alcotest.test_case "fusable ops" `Quick test_fusable_ops;
        ] );
    ]
