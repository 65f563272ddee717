module U = Sbt_umem.Uarray

type chunk = { scratch_bytes : int; run : unit -> unit }
type runner = { width : int; run_chunks : chunk array -> unit }

type slice = { buf : U.buf; off : int; len : int }

let slice_of_uarray ua = { buf = U.raw ua; off = 0; len = U.length ua }

let serial = { width = 1; run_chunks = (fun cs -> Array.iter (fun c -> c.run ()) cs) }

let domains ~n =
  if n < 1 then invalid_arg "Par_kernel.domains: n must be >= 1";
  let run_chunks chunks =
    let m = Array.length chunks in
    if m = 0 then ()
    else if n = 1 || m = 1 then Array.iter (fun c -> c.run ()) chunks
    else begin
      let next = Atomic.make 0 in
      let work () =
        let continue = ref true in
        while !continue do
          let i = Atomic.fetch_and_add next 1 in
          if i < m then chunks.(i).run () else continue := false
        done
      in
      let helpers = Array.init (min (n - 1) (m - 1)) (fun _ -> Domain.spawn work) in
      work ();
      Array.iter Domain.join helpers
    end
  in
  { width = n; run_chunks }

(* ------------------------------------------------------------------ *)
(* Shared helpers *)

let get (buf : U.buf) i = Bigarray.Array1.unsafe_get buf i
let set (buf : U.buf) i v = Bigarray.Array1.unsafe_set buf i v
let key (buf : U.buf) w kf r = Int32.to_int (get buf ((r * w) + kf))

let copy_record ~(src : U.buf) ~src_r ~(dst : U.buf) ~dst_r w =
  let bs = src_r * w and bd = dst_r * w in
  for f = 0 to w - 1 do
    set dst (bd + f) (get src (bs + f))
  done

let blit_records ~(src : U.buf) ~src_r ~(dst : U.buf) ~dst_r ~w ~n =
  if n > 0 then
    Bigarray.Array1.blit
      (Bigarray.Array1.sub src (src_r * w) (n * w))
      (Bigarray.Array1.sub dst (dst_r * w) (n * w))

let host_buf cells : U.buf = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout (max 1 cells)

let bytes_for_records w n = n * w * 4

(* Contiguous record-range splits: piece [i] covers
   [i*n/pieces, (i+1)*n/pieces).  Pieces may be empty when n < pieces. *)
let ranges ~n ~pieces =
  Array.init pieces (fun i ->
      let s = i * n / pieces and e = (i + 1) * n / pieces in
      (s, e - s))

(* Below this size a chunked pass costs more in coordination than the scan
   itself; callers can override with ~pieces to force the parallel path in
   tests. *)
let min_piece_records = 2048

let pieces_for runner pieces n =
  match pieces with
  | Some p -> if p < 1 then invalid_arg "Par_kernel: pieces must be >= 1" else p
  | None ->
      if runner.width <= 1 || n < 2 * min_piece_records then 1
      else min runner.width (max 1 (n / min_piece_records))

(* ------------------------------------------------------------------ *)
(* Stable k-way merge of sorted runs.

   Determinism hinges on the tie-break: equal keys are emitted in run-index
   order, and records with equal keys from the same run keep their order.
   That is exactly the order a full stable sort produces when run [i] holds
   the records that preceded run [i+1]'s in the input, and exactly the
   order [Merge.kway]'s tournament of left-preferring binary merges
   produces over its input list. *)

(* Records of [s] with key strictly below / at most [v]. *)
let count_lt s ~w ~kf v =
  let lo = ref 0 and hi = ref s.len in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if key s.buf w kf (s.off + mid) < v then lo := mid + 1 else hi := mid
  done;
  !lo

let count_le s ~w ~kf v =
  let lo = ref 0 and hi = ref s.len in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if key s.buf w kf (s.off + mid) <= v then lo := mid + 1 else hi := mid
  done;
  !lo

(* Per-run prefix lengths whose concatenation is the first [t] records of
   the stable k-way merge (co-rank selection).  Binary-search the key
   space for the smallest key value v with #\{key <= v\} >= t, take every
   record below v, then hand out records equal to v greedily in run-index
   order — the same order the merge emits them. *)
let split_at runs ~w ~kf ~total t =
  let k = Array.length runs in
  if t <= 0 then Array.make k 0
  else if t >= total then Array.map (fun r -> r.len) runs
  else begin
    let lo = ref (Int32.to_int Int32.min_int) and hi = ref (Int32.to_int Int32.max_int) in
    while !lo < !hi do
      let mid = (!lo + !hi) asr 1 in
      let c = Array.fold_left (fun a r -> a + count_le r ~w ~kf mid) 0 runs in
      if c >= t then hi := mid else lo := mid + 1
    done;
    let v = !lo in
    let cut = Array.map (fun r -> count_lt r ~w ~kf v) runs in
    let rem = ref (t - Array.fold_left ( + ) 0 cut) in
    Array.iteri
      (fun i r ->
        if !rem > 0 then begin
          let eq = count_le r ~w ~kf v - cut.(i) in
          let take = min eq !rem in
          cut.(i) <- cut.(i) + take;
          rem := !rem - take
        end)
      runs;
    cut
  end

(* Merge the sub-ranges [los.(j), his.(j)) of each run into [dst] at
   [dst_r0]: linear min-scan with lowest-run-index tie-break, degrading to
   a blit once a single run survives. *)
let merge_ranges runs ~los ~his ~(dst : U.buf) ~dst_r0 ~w ~kf =
  let k = Array.length runs in
  let pos = Array.copy los in
  let o = ref dst_r0 in
  let active = ref 0 in
  for j = 0 to k - 1 do
    if pos.(j) < his.(j) then incr active
  done;
  while !active > 1 do
    let best = ref (-1) and bestk = ref 0 in
    for j = 0 to k - 1 do
      if pos.(j) < his.(j) then begin
        let kj = key runs.(j).buf w kf (runs.(j).off + pos.(j)) in
        if !best < 0 || kj < !bestk then begin
          best := j;
          bestk := kj
        end
      end
    done;
    let j = !best in
    copy_record ~src:runs.(j).buf ~src_r:(runs.(j).off + pos.(j)) ~dst ~dst_r:!o w;
    pos.(j) <- pos.(j) + 1;
    incr o;
    if pos.(j) >= his.(j) then decr active
  done;
  for j = 0 to k - 1 do
    if pos.(j) < his.(j) then begin
      let len = his.(j) - pos.(j) in
      blit_records ~src:runs.(j).buf ~src_r:(runs.(j).off + pos.(j)) ~dst ~dst_r:!o ~w ~n:len;
      o := !o + len
    end
  done

let merge_sorted_runs ~runner ~pieces ~w ~kf ~runs ~total ~dst_buf ~dst_off =
  if total > 0 then begin
    if pieces <= 1 || Array.length runs = 1 then
      merge_ranges runs ~los:(Array.map (fun _ -> 0) runs)
        ~his:(Array.map (fun r -> r.len) runs)
        ~dst:dst_buf ~dst_r0:dst_off ~w ~kf
    else begin
      let cuts =
        Array.init (pieces + 1) (fun p -> split_at runs ~w ~kf ~total (p * total / pieces))
      in
      let chunks =
        Array.init pieces (fun p ->
            let los = cuts.(p) and his = cuts.(p + 1) in
            let out_off = p * total / pieces in
            let out_len = ((p + 1) * total / pieces) - out_off in
            {
              scratch_bytes = bytes_for_records w out_len;
              run =
                (fun () ->
                  if out_len > 0 then
                    merge_ranges runs ~los ~his ~dst:dst_buf ~dst_r0:(dst_off + out_off) ~w
                      ~kf);
            })
      in
      runner.run_chunks chunks
    end
  end

let merge_raw ?(runner = serial) ?pieces ~w ~key_field ~runs ~dst_buf ~dst_off () =
  let total = Array.fold_left (fun a r -> a + r.len) 0 runs in
  if total > 0 then begin
    let pieces = pieces_for runner pieces total in
    merge_sorted_runs ~runner ~pieces ~w ~kf:key_field ~runs ~total ~dst_buf ~dst_off
  end

(* ------------------------------------------------------------------ *)
(* Parallel stable radix sort: per-piece stable LSD radix into a runs
   buffer, then the stable k-way merge above.  Chunk-sort + stable merge
   over contiguous pieces is extensionally equal to one full stable sort,
   so the result is byte-identical to [Sort.sort Radix]. *)

let sort_raw ?(runner = serial) ?pieces ~w ~key_field ~src ~dst_buf ~dst_off () =
  let kf = key_field and n = src.len in
  if n > 0 then begin
    let pieces = pieces_for runner pieces n in
    if pieces <= 1 then begin
      if not (src.buf == dst_buf && src.off = dst_off) then
        blit_records ~src:src.buf ~src_r:src.off ~dst:dst_buf ~dst_r:dst_off ~w ~n;
      let slice = Bigarray.Array1.sub dst_buf (dst_off * w) (n * w) in
      Sort.radix_sort_range slice ~scratch:(host_buf (n * w)) ~w ~key_field:kf ~n
    end
    else begin
      let runs_buf = host_buf (n * w) in
      let scratch = host_buf (n * w) in
      let rs = ranges ~n ~pieces in
      let sort_chunks =
        Array.map
          (fun (s, len) ->
            {
              scratch_bytes = bytes_for_records w (2 * len);
              run =
                (fun () ->
                  if len > 0 then begin
                    blit_records ~src:src.buf ~src_r:(src.off + s) ~dst:runs_buf ~dst_r:s ~w
                      ~n:len;
                    let sub b = Bigarray.Array1.sub b (s * w) (len * w) in
                    Sort.radix_sort_range (sub runs_buf) ~scratch:(sub scratch) ~w
                      ~key_field:kf ~n:len
                  end);
            })
          rs
      in
      runner.run_chunks sort_chunks;
      let runs = Array.map (fun (s, len) -> { buf = runs_buf; off = s; len }) rs in
      merge_sorted_runs ~runner ~pieces ~w ~kf ~runs ~total:n ~dst_buf ~dst_off
    end
  end

(* ------------------------------------------------------------------ *)
(* Segment: per-piece partial window->count hash tables merged in
   canonical (ascending window) order, then an order-preserving parallel
   scatter — piece [i]'s records land after pieces [0..i-1]'s within every
   window, which is exactly the serial record order. *)

let window_counts_of_piece (buf : U.buf) ~w ~ts_field ~size ~slide ~off ~len =
  let t = Hashtbl.create 32 in
  for r = off to off + len - 1 do
    let ts = Int32.to_int (get buf ((r * w) + ts_field)) in
    let lo, hi = Segment.windows_of ~ts ~size ~slide in
    for win = lo to hi do
      Hashtbl.replace t win (1 + Option.value ~default:0 (Hashtbl.find_opt t win))
    done
  done;
  t

let segment_count_tables ~runner ~pieces ~w ~ts_field ~size ~slide ~src =
  let rs = ranges ~n:src.len ~pieces in
  let tables = Array.make pieces None in
  let chunks =
    Array.mapi
      (fun i (s, len) ->
        {
          scratch_bytes = len * 16;
          run =
            (fun () ->
              tables.(i) <-
                Some
                  (window_counts_of_piece src.buf ~w ~ts_field ~size ~slide ~off:(src.off + s)
                     ~len));
        })
      rs
  in
  runner.run_chunks chunks;
  (rs, Array.map (function Some t -> t | None -> Hashtbl.create 1) tables)

let merge_count_tables tables =
  let merged = Hashtbl.create 64 in
  Array.iter
    (fun t ->
      Hashtbl.iter
        (fun win c ->
          Hashtbl.replace merged win (c + Option.value ~default:0 (Hashtbl.find_opt merged win)))
        t)
    tables;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) merged [])

let segment_counts ?(runner = serial) ?pieces ~w ~ts_field ~window_size ?slide ~src () =
  let slide = Option.value ~default:window_size slide in
  let pieces = pieces_for runner pieces src.len in
  let _, tables =
    segment_count_tables ~runner ~pieces ~w ~ts_field ~size:window_size ~slide ~src
  in
  merge_count_tables tables

let segment_raw ?(runner = serial) ?pieces ~w ~ts_field ~window_size ?slide ~src ~alloc () =
  let slide = Option.value ~default:window_size slide in
  let pieces = pieces_for runner pieces src.len in
  let rs, tables =
    segment_count_tables ~runner ~pieces ~w ~ts_field ~size:window_size ~slide ~src
  in
  let counts = merge_count_tables tables in
  (* Destinations are allocated serially in ascending window order — the
     same order the serial counting pass reports them. *)
  let dst_tbl = Hashtbl.create 64 in
  List.iter (fun (win, c) -> Hashtbl.replace dst_tbl win (alloc win c)) counts;
  (* Start offset of piece [i] within window [win] = records earlier
     pieces route there. *)
  let piece_start = Array.map (fun _ -> Hashtbl.create 32) tables in
  List.iter
    (fun (win, _) ->
      let acc = ref 0 in
      Array.iteri
        (fun i t ->
          Hashtbl.replace piece_start.(i) win !acc;
          acc := !acc + Option.value ~default:0 (Hashtbl.find_opt t win))
        tables)
    counts;
  let chunks =
    Array.mapi
      (fun i (s, len) ->
        let written = Hashtbl.fold (fun _ c a -> a + c) tables.(i) 0 in
        {
          scratch_bytes = bytes_for_records w written;
          run =
            (fun () ->
              let cursors = Hashtbl.create 32 in
              for r = src.off + s to src.off + s + len - 1 do
                let ts = Int32.to_int (get src.buf ((r * w) + ts_field)) in
                let lo, hi = Segment.windows_of ~ts ~size:window_size ~slide in
                for win = lo to hi do
                  let dbuf, base = Hashtbl.find dst_tbl win in
                  let cur =
                    match Hashtbl.find_opt cursors win with
                    | Some c -> c
                    | None ->
                        let c = ref (Hashtbl.find piece_start.(i) win) in
                        Hashtbl.replace cursors win c;
                        c
                  in
                  copy_record ~src:src.buf ~src_r:r ~dst:dbuf ~dst_r:(base + !cur) w;
                  incr cur
                done
              done);
        })
      rs
  in
  runner.run_chunks chunks

(* ------------------------------------------------------------------ *)
(* Per-key aggregation over key-sorted input: piece boundaries are aligned
   to run (equal-key group) boundaries so no group straddles two pieces;
   per-piece group counts give each piece's output offset, and pieces in
   index order emit groups in canonical key order. *)

type agg = Agg_sum | Agg_count | Agg_avg

let aligned_ranges src ~w ~kf ~pieces =
  let n = src.len in
  let bounds =
    Array.init (pieces + 1) (fun i ->
        if i = 0 then 0
        else if i = pieces then n
        else begin
          let r = ref (i * n / pieces) in
          while !r < n && !r > 0 && key src.buf w kf (src.off + !r) = key src.buf w kf (src.off + !r - 1) do
            incr r
          done;
          !r
        end)
  in
  Array.init pieces (fun i -> (bounds.(i), bounds.(i + 1) - bounds.(i)))

let groups_in src ~w ~kf (s, len) =
  let c = ref 0 in
  for r = s to s + len - 1 do
    if r = 0 || key src.buf w kf (src.off + r) <> key src.buf w kf (src.off + r - 1) then incr c
  done;
  !c

(* Mirrors Keyed's arithmetic exactly: Int64 accumulator, truncating
   Int64.to_int32 on the way out, Int64.div for the average. *)
let aggregate_piece src ~w ~kf ~vf ~agg (s, len) ~(dst_buf : U.buf) ~dst_r0 =
  let o = ref dst_r0 in
  let r = ref s in
  let e = s + len in
  while !r < e do
    let k = key src.buf w kf (src.off + !r) in
    let start = !r in
    incr r;
    while !r < e && key src.buf w kf (src.off + !r) = k do incr r done;
    let run_len = !r - start in
    let v =
      match agg with
      | Agg_count -> Int32.of_int run_len
      | Agg_sum | Agg_avg ->
          let acc = ref 0L in
          for q = start to start + run_len - 1 do
            acc := Int64.add !acc (Int64.of_int32 (get src.buf (((src.off + q) * w) + vf)))
          done;
          if agg = Agg_sum then Int64.to_int32 !acc
          else Int64.to_int32 (Int64.div !acc (Int64.of_int run_len))
    in
    set dst_buf (!o * 2) (Int32.of_int k);
    set dst_buf ((!o * 2) + 1) v;
    incr o
  done;
  !o - dst_r0

let per_key_raw ?(runner = serial) ?pieces ~w ~key_field ~value_field ~agg ~src ~alloc () =
  let kf = key_field and vf = value_field in
  if src.len = 0 then ignore (alloc 0)
  else begin
    let pieces = pieces_for runner pieces src.len in
    if pieces <= 1 then begin
      let groups = groups_in src ~w ~kf (0, src.len) in
      let dst_buf, dst_off = alloc groups in
      ignore (aggregate_piece src ~w ~kf ~vf ~agg (0, src.len) ~dst_buf ~dst_r0:dst_off)
    end
    else begin
      let rs = aligned_ranges src ~w ~kf ~pieces in
      let gcounts = Array.make pieces 0 in
      let count_chunks =
        Array.mapi
          (fun i range ->
            { scratch_bytes = 0; run = (fun () -> gcounts.(i) <- groups_in src ~w ~kf range) })
          rs
      in
      runner.run_chunks count_chunks;
      let offs = Array.make (pieces + 1) 0 in
      for i = 0 to pieces - 1 do
        offs.(i + 1) <- offs.(i) + gcounts.(i)
      done;
      let dst_buf, dst_off = alloc offs.(pieces) in
      let write_chunks =
        Array.mapi
          (fun i range ->
            {
              scratch_bytes = bytes_for_records 2 gcounts.(i);
              run =
                (fun () ->
                  ignore
                    (aggregate_piece src ~w ~kf ~vf ~agg range ~dst_buf
                       ~dst_r0:(dst_off + offs.(i))));
            })
          rs
      in
      runner.run_chunks write_chunks
    end
  end

(* ------------------------------------------------------------------ *)
(* Chunked filter/select: per-piece match counts, serial prefix sum, then
   a parallel scatter at stable offsets — order-preserving by
   construction. *)

let filter_band_raw ?(runner = serial) ?pieces ~w ~field ~lo ~hi ~src ~alloc () =
  let loi = Int32.to_int lo and hii = Int32.to_int hi in
  let matches r =
    let v = Int32.to_int (get src.buf ((r * w) + field)) in
    v >= loi && v <= hii
  in
  if src.len = 0 then ignore (alloc 0)
  else begin
    let pieces = pieces_for runner pieces src.len in
    let rs = ranges ~n:src.len ~pieces in
    let mcounts = Array.make pieces 0 in
    let count_chunks =
      Array.mapi
        (fun i (s, len) ->
          {
            scratch_bytes = 0;
            run =
              (fun () ->
                let c = ref 0 in
                for r = src.off + s to src.off + s + len - 1 do
                  if matches r then incr c
                done;
                mcounts.(i) <- !c);
          })
        rs
    in
    runner.run_chunks count_chunks;
    let offs = Array.make (pieces + 1) 0 in
    for i = 0 to pieces - 1 do
      offs.(i + 1) <- offs.(i) + mcounts.(i)
    done;
    let dst_buf, dst_off = alloc offs.(pieces) in
    let write_chunks =
      Array.mapi
        (fun i (s, len) ->
          {
            scratch_bytes = bytes_for_records w mcounts.(i);
            run =
              (fun () ->
                let o = ref (dst_off + offs.(i)) in
                for r = src.off + s to src.off + s + len - 1 do
                  if matches r then begin
                    copy_record ~src:src.buf ~src_r:r ~dst:dst_buf ~dst_r:!o w;
                    incr o
                  end
                done);
          })
        rs
    in
    runner.run_chunks write_chunks
  end

(* ------------------------------------------------------------------ *)
(* Fused chain: one pass per record through the whole step list, via the
   same per-piece count -> serial prefix -> parallel scatter shape as the
   band filter, so fused kernels run under the `Work executor unchanged.
   The count pass evaluates the whole chain (a projection or key shift can
   change what a later filter sees) on a per-chunk scratch row and marks
   the survivors; the scatter pass re-evaluates only those. *)

let fused_eval steps ~w ~(src : U.buf) ~r ~(row : int32 array) ~(tmp : int32 array) =
  for f = 0 to w - 1 do
    row.(f) <- get src ((r * w) + f)
  done;
  let rec go cw = function
    | [] -> Some cw
    | Fused.F_filter_band { field; lo; hi } :: rest ->
        let v = Int32.to_int row.(field) in
        if v >= Int32.to_int lo && v <= Int32.to_int hi then go cw rest else None
    | Fused.F_select { field; value } :: rest ->
        if row.(field) = value then go cw rest else None
    | Fused.F_project { fields } :: rest ->
        let dw = Array.length fields in
        for i = 0 to dw - 1 do
          tmp.(i) <- row.(fields.(i))
        done;
        Array.blit tmp 0 row 0 dw;
        go dw rest
    | Fused.F_shift_key { field; shift } :: rest ->
        row.(field) <- Int32.shift_right row.(field) shift;
        go cw rest
  in
  go w steps

let fused_raw ?(runner = serial) ?pieces ~w ~steps ~src ~alloc () =
  let dw =
    match Fused.width_after w steps with
    | Some d -> d
    | None -> invalid_arg "Par_kernel.fused_raw: step chain invalid for input width"
  in
  let mw = max 1 (Fused.max_width w steps) in
  if src.len = 0 then ignore (alloc 0)
  else begin
    let pieces = pieces_for runner pieces src.len in
    let rs = ranges ~n:src.len ~pieces in
    let mcounts = Array.make pieces 0 in
    let survived = Array.map (fun (_, len) -> Bytes.make len '\000') rs in
    let count_chunks =
      Array.mapi
        (fun i (s, len) ->
          {
            scratch_bytes = bytes_for_records mw 2 + len;
            run =
              (fun () ->
                let row = Array.make mw 0l and tmp = Array.make mw 0l in
                let c = ref 0 in
                for k = 0 to len - 1 do
                  if fused_eval steps ~w ~src:src.buf ~r:(src.off + s + k) ~row ~tmp <> None
                  then begin
                    Bytes.unsafe_set survived.(i) k '\001';
                    incr c
                  end
                done;
                mcounts.(i) <- !c);
          })
        rs
    in
    runner.run_chunks count_chunks;
    let offs = Array.make (pieces + 1) 0 in
    for i = 0 to pieces - 1 do
      offs.(i + 1) <- offs.(i) + mcounts.(i)
    done;
    let dst_buf, dst_off = alloc offs.(pieces) in
    let write_chunks =
      Array.mapi
        (fun i (s, len) ->
          {
            scratch_bytes = bytes_for_records dw mcounts.(i);
            run =
              (fun () ->
                let row = Array.make mw 0l and tmp = Array.make mw 0l in
                let o = ref (dst_off + offs.(i)) in
                for k = 0 to len - 1 do
                  if Bytes.unsafe_get survived.(i) k = '\001' then begin
                    ignore (fused_eval steps ~w ~src:src.buf ~r:(src.off + s + k) ~row ~tmp);
                    let b = !o * dw in
                    for f = 0 to dw - 1 do
                      set dst_buf (b + f) row.(f)
                    done;
                    incr o
                  end
                done);
          })
        rs
    in
    runner.run_chunks write_chunks
  end

(* ------------------------------------------------------------------ *)
(* Chunked 1:1 projection and order-preserving concat. *)

let project_raw ?(runner = serial) ?pieces ~w ~fields ~src ~dst_buf ~dst_off () =
  let dw = Array.length fields in
  if src.len > 0 then begin
    let pieces = pieces_for runner pieces src.len in
    let rs = ranges ~n:src.len ~pieces in
    let chunks =
      Array.map
        (fun (s, len) ->
          {
            scratch_bytes = bytes_for_records dw len;
            run =
              (fun () ->
                for r = s to s + len - 1 do
                  let sb = (src.off + r) * w and db = (dst_off + r) * dw in
                  for i = 0 to dw - 1 do
                    set dst_buf (db + i) (get src.buf (sb + fields.(i)))
                  done
                done);
          })
        rs
    in
    runner.run_chunks chunks
  end

let concat_raw ?(runner = serial) ~w ~inputs ~dst_buf ~dst_off () =
  let k = Array.length inputs in
  let offs = Array.make (k + 1) 0 in
  for i = 0 to k - 1 do
    offs.(i + 1) <- offs.(i) + inputs.(i).len
  done;
  let chunks =
    Array.mapi
      (fun i s ->
        {
          scratch_bytes = bytes_for_records w s.len;
          run =
            (fun () ->
              blit_records ~src:s.buf ~src_r:s.off ~dst:dst_buf ~dst_r:(dst_off + offs.(i)) ~w
                ~n:s.len);
        })
      inputs
  in
  runner.run_chunks chunks

(* ------------------------------------------------------------------ *)
(* uArray-level wrappers, byte-compatible with the serial primitives. *)

let sort ?runner ?pieces ~src ~dst ~key_field () =
  let w = U.width src in
  if U.width dst <> w then invalid_arg "Par_kernel.sort: width mismatch";
  if key_field < 0 || key_field >= w then invalid_arg "Par_kernel.sort: bad key field";
  let n = U.length src in
  let first = U.reserve dst n in
  sort_raw ?runner ?pieces ~w ~key_field ~src:(slice_of_uarray src) ~dst_buf:(U.raw dst)
    ~dst_off:first ()

let sort_in_place ?runner ?pieces ua ~key_field =
  if not (U.is_open ua) then raise (U.Sealed { id = U.id ua });
  let w = U.width ua and n = U.length ua in
  if key_field < 0 || key_field >= w then invalid_arg "Par_kernel.sort_in_place: bad key field";
  sort_raw ?runner ?pieces ~w ~key_field
    ~src:{ buf = U.raw ua; off = 0; len = n }
    ~dst_buf:(U.raw ua) ~dst_off:0 ()

let kway ?runner ?pieces ~inputs ~dst ~key_field () =
  match inputs with
  | [] -> ()
  | hd :: _ ->
      let w = U.width hd in
      List.iter
        (fun ua -> if U.width ua <> w then invalid_arg "Par_kernel.kway: width mismatch")
        inputs;
      if U.width dst <> w then invalid_arg "Par_kernel.kway: width mismatch";
      let runs = Array.of_list (List.map slice_of_uarray inputs) in
      let total = Array.fold_left (fun a r -> a + r.len) 0 runs in
      let first = U.reserve dst total in
      merge_raw ?runner ?pieces ~w ~key_field ~runs ~dst_buf:(U.raw dst) ~dst_off:first ()

let count_per_window ?runner ?pieces ~src ~ts_field ~window_size ?slide () =
  segment_counts ?runner ?pieces ~w:(U.width src) ~ts_field ~window_size ?slide
    ~src:(slice_of_uarray src) ()

let segment ?runner ?pieces ~src ~ts_field ~window_size ?slide ~dst_for_window () =
  let w = U.width src in
  let alloc win count =
    let d = dst_for_window win in
    if U.width d <> w then invalid_arg "Par_kernel.segment: width mismatch";
    let first = U.reserve d count in
    (U.raw d, first)
  in
  segment_raw ?runner ?pieces ~w ~ts_field ~window_size ?slide ~src:(slice_of_uarray src)
    ~alloc ()

let per_key ?runner ?pieces ~agg ~src ~dst ~key_field ~value_field () =
  if U.width dst <> 2 then invalid_arg "Keyed: dst width must be 2 (key, value)";
  let w = U.width src in
  let alloc groups =
    let first = U.reserve dst groups in
    (U.raw dst, first)
  in
  per_key_raw ?runner ?pieces ~w ~key_field ~value_field ~agg ~src:(slice_of_uarray src) ~alloc
    ()

let sum_per_key ?runner ?pieces ~src ~dst ~key_field ~value_field () =
  per_key ?runner ?pieces ~agg:Agg_sum ~src ~dst ~key_field ~value_field ()

let count_per_key ?runner ?pieces ~src ~dst ~key_field () =
  per_key ?runner ?pieces ~agg:Agg_count ~src ~dst ~key_field ~value_field:0 ()

let avg_per_key ?runner ?pieces ~src ~dst ~key_field ~value_field () =
  per_key ?runner ?pieces ~agg:Agg_avg ~src ~dst ~key_field ~value_field ()

let filter_band ?runner ?pieces ~src ~dst ~field ~lo ~hi () =
  let w = U.width src in
  if U.width dst <> w then invalid_arg "Filter: width mismatch";
  let alloc matches =
    let first = U.reserve dst matches in
    (U.raw dst, first)
  in
  filter_band_raw ?runner ?pieces ~w ~field ~lo ~hi ~src:(slice_of_uarray src) ~alloc ()

let select_eq ?runner ?pieces ~src ~dst ~field ~value () =
  filter_band ?runner ?pieces ~src ~dst ~field ~lo:value ~hi:value ()

let project ?runner ?pieces ~src ~dst ~fields () =
  let w = U.width src and n = U.length src in
  let dw = Array.length fields in
  if U.width dst <> dw then invalid_arg "Misc.project: dst width mismatch";
  Array.iter (fun f -> if f < 0 || f >= w then invalid_arg "Misc.project: bad field") fields;
  let first = U.reserve dst n in
  project_raw ?runner ?pieces ~w ~fields ~src:(slice_of_uarray src) ~dst_buf:(U.raw dst)
    ~dst_off:first ()

let fused ?runner ?pieces ~src ~dst ~steps () =
  let w = U.width src in
  (match Fused.width_after w steps with
  | Some dw when dw = U.width dst -> ()
  | Some _ -> invalid_arg "Par_kernel.fused: dst width mismatch"
  | None -> invalid_arg "Par_kernel.fused: step chain invalid for input width");
  let alloc kept =
    let first = U.reserve dst kept in
    (U.raw dst, first)
  in
  fused_raw ?runner ?pieces ~w ~steps ~src:(slice_of_uarray src) ~alloc ()

let concat ?runner ~inputs ~dst () =
  match inputs with
  | [] -> ()
  | hd :: _ ->
      let w = U.width hd in
      List.iter
        (fun ua -> if U.width ua <> w then invalid_arg "Par_kernel.concat: width mismatch")
        inputs;
      let slices = Array.of_list (List.map slice_of_uarray inputs) in
      let total = Array.fold_left (fun a s -> a + s.len) 0 slices in
      let first = U.reserve dst total in
      concat_raw ?runner ~w ~inputs:slices ~dst_buf:(U.raw dst) ~dst_off:first ()
