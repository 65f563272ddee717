module U = Sbt_umem.Uarray

let windows_of ~ts ~size ~slide =
  if size <= 0 || slide <= 0 then invalid_arg "Segment.windows_of: size and slide must be positive";
  let hi = ts / slide in
  let lo =
    (* smallest w with w*slide + size > ts *)
    let d = ts - size in
    if d < 0 then 0 else (d / slide) + 1
  in
  (lo, hi)

let ts_at (buf : U.buf) w tf r = Int32.to_int (Bigarray.Array1.unsafe_get buf ((r * w) + tf))

(* The timestamps whose window range is [lo, hi] form an interval, since
   both ends of the range are monotone in [ts]: the intersection of the
   level sets of [hi = ts / slide] and of [lo].  Past 32-bit sizes and
   slides, [ts - size] and these products can wrap, so the interval
   shrinks to [ts] itself. *)
let run_bounds ~ts ~size ~slide lo hi =
  if size lor slide > 0xFFFF_FFFF then (ts, ts)
  else
    ( max (if hi > 0 then hi * slide else ((hi - 1) * slide) + 1)
        (if lo = 0 then min_int else size + ((lo - 1) * slide)),
      min (if hi >= 0 then ((hi + 1) * slide) - 1 else hi * slide) (size + (lo * slide) - 1) )

(* The scan both passes share: [f first len lo hi] for each maximal run of
   records [first, first + len) whose timestamps have the window range
   [lo, hi] (no window when lo > hi).  Only a record whose timestamp
   leaves the run's bounds divides again. *)
let iter_runs ~src ~ts_field ~size ~slide f =
  let w = U.width src and n = U.length src and buf = U.raw src in
  let r = ref 0 in
  while !r < n do
    let first = !r and ts = ts_at buf w ts_field !r in
    let lo, hi = windows_of ~ts ~size ~slide in
    let bot, top = run_bounds ~ts ~size ~slide lo hi in
    incr r;
    while !r < n && (let t = ts_at buf w ts_field !r in t >= bot && t <= top) do incr r done;
    f first (!r - first) lo hi
  done

(* The position of window [win] in the ascending [counts]. *)
let rec pos counts win lo hi =
  let mid = (lo + hi) / 2 in
  let w = fst counts.(mid) in
  if w < win then pos counts win (mid + 1) hi else if w > win then pos counts win lo (mid - 1) else mid

(* The batch's runs that fall in some window, in record order, and the
   windows they cover with their record counts, ascending.  The counts
   come from one sweep over the sorted ends of the runs' window ranges,
   so work and memory follow the windows the batch covers, however far
   apart its timestamps lie. *)
let plan ~src ~ts_field ~size ~slide =
  let runs = ref [] and ends = ref [] in
  iter_runs ~src ~ts_field ~size ~slide (fun first len lo hi ->
      if lo <= hi then begin
        runs := (first, len, lo, hi) :: !runs;
        ends := (lo, len) :: (hi + 1, -len) :: !ends
      end);
  let rec sweep live acc = function
    | (win, d) :: ((next, _) :: _ as rest) ->
        let live = live + d in
        let run () = List.init (next - win) (fun i -> (win + i, live)) in
        let acc = if live > 0 then List.rev_append (run ()) acc else acc in
        sweep live acc rest
    | _ -> Array.of_list (List.rev acc)
  in
  (List.rev !runs, sweep 0 [] (List.sort (fun (a, _) (b, _) -> Int.compare a b) !ends))

let split ~src ~ts_field ~window_size ?(slide = window_size) ~alloc () =
  let runs, counts = plan ~src ~ts_field ~size:window_size ~slide in
  let dsts = Array.mapi (fun i (win, count) -> (win, alloc ~i ~win ~count)) counts in
  let dst win = snd dsts.(pos counts win 0 (Array.length counts - 1)) in
  (* Copy each run into the destination of every window it covers. *)
  List.iter (fun (first, len, lo, hi) ->
      for win = lo to hi do U.append_blit (dst win) ~src ~src_pos:first ~len done) runs;
  Array.to_list dsts
