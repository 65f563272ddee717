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

let count_per_window ~src ~ts_field ~window_size ?(slide = window_size) () =
  let counts = Hashtbl.create 8 in
  iter_runs ~src ~ts_field ~size:window_size ~slide (fun _ len lo hi ->
      for win = lo to hi do
        Hashtbl.replace counts win (len + Option.value ~default:0 (Hashtbl.find_opt counts win))
      done);
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts [])

let segment ~src ~ts_field ~window_size ?(slide = window_size) ~dst_for_window () =
  let w = U.width src in
  let dsts = Hashtbl.create 8 in
  let dst_of win =
    match Hashtbl.find_opt dsts win with
    | Some d -> d
    | None ->
        let d = dst_for_window win in
        if U.width d <> w then invalid_arg "Segment.segment: width mismatch";
        Hashtbl.replace dsts win d;
        d
  in
  iter_runs ~src ~ts_field ~size:window_size ~slide (fun first len lo hi ->
      for win = lo to hi do
        U.append_blit (dst_of win) ~src ~src_pos:first ~len
      done)
