module U = Sbt_umem.Uarray

type algorithm = Radix | Std | Qsort

(* Key extraction: signed int32 order, handled as native ints. *)
let key (buf : U.buf) w kf r = Int32.to_int (Bigarray.Array1.unsafe_get buf ((r * w) + kf))

let swap_records (buf : U.buf) w i j =
  let bi = i * w and bj = j * w in
  for f = 0 to w - 1 do
    let t = Bigarray.Array1.unsafe_get buf (bi + f) in
    Bigarray.Array1.unsafe_set buf (bi + f) (Bigarray.Array1.unsafe_get buf (bj + f));
    Bigarray.Array1.unsafe_set buf (bj + f) t
  done

let copy_record ~(src : U.buf) ~src_r ~(dst : U.buf) ~dst_r w =
  let bs = src_r * w and bd = dst_r * w in
  for f = 0 to w - 1 do
    Bigarray.Array1.unsafe_set dst (bd + f) (Bigarray.Array1.unsafe_get src (bs + f))
  done

(* ------------------------------------------------------------------ *)
(* Radix sort: LSD over four 8-bit digits of the key biased by 2^31, which
   orders signed keys as unsigned ones.  This is the model of the
   hand-vectorized NEON sort: no comparisons, sequential passes over
   contiguous memory.  One pass builds all four digit histograms; a digit
   on which every key agrees is skipped, since a stable pass over it is
   the identity. *)

let digit k p = ((k + 0x8000_0000) lsr (8 * p)) land 0xFF

(* Sort the [n] records of [src] into [dst]; [src == dst] sorts in place.
   The passes alternate between [dst] and one scratch buffer, starting so
   that the last pass writes [dst]. *)
let radix_sort (src : U.buf) (dst : U.buf) w kf n =
  let hist = Array.make 1024 0 in
  for r = 0 to n - 1 do
    (* [digit k p] for p = 0..3, unrolled: a loop here costs 16%. *)
    let u = key src w kf r + 0x8000_0000 in
    let d0 = u land 0xFF and d1 = 256 + ((u lsr 8) land 0xFF) in
    let d2 = 512 + ((u lsr 16) land 0xFF) and d3 = 768 + ((u lsr 24) land 0xFF) in
    hist.(d0) <- hist.(d0) + 1;
    hist.(d1) <- hist.(d1) + 1;
    hist.(d2) <- hist.(d2) + 1;
    hist.(d3) <- hist.(d3) + 1
  done;
  let k0 = if n > 0 then key src w kf 0 else 0 in
  let live = List.filter (fun p -> hist.((p * 256) + digit k0 p) < n) [ 0; 1; 2; 3 ] in
  let passes = List.length live in
  let scratch = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout (n * w) in
  (* The rows start where the first pass may read them: in [dst] when
     there is no pass, in scratch when an in-place sort's first pass
     writes [dst]. *)
  let odd_in_place = src == dst && passes land 1 = 1 in
  let from = ref (if passes = 0 then dst else if odd_in_place then scratch else src) in
  if !from != src then Bigarray.Array1.blit src !from;
  List.iteri
    (fun i p ->
      let h = p * 256 and s = !from in
      let t = if (passes - i) land 1 = 1 then dst else scratch in
      let acc = ref 0 in
      for d = h to h + 255 do
        let c = hist.(d) in
        hist.(d) <- !acc;
        acc := !acc + c
      done;
      for r = 0 to n - 1 do
        let d = h + digit (key s w kf r) p in
        copy_record ~src:s ~src_r:r ~dst:t ~dst_r:hist.(d) w;
        hist.(d) <- hist.(d) + 1
      done;
      from := t)
    live

(* ------------------------------------------------------------------ *)
(* Comparison sorts: one specialized version with the key comparison
   inlined (the std::sort template model) and one driven through a
   comparator closure (the libc qsort function-pointer model).  The two
   are intentionally separate implementations of the same introsort-lite
   (quicksort + insertion-sort cutoff): the paper's 2x-vs-7x gap between
   std::sort and qsort comes precisely from comparator inlining, so we
   preserve that structural difference rather than sharing the code. *)

let cutoff = 24

let std_sort (buf : U.buf) w kf n =
  let insertion lo hi =
    for i = lo + 1 to hi do
      let j = ref i in
      while !j > lo && key buf w kf (!j - 1) > key buf w kf !j do
        swap_records buf w (!j - 1) !j;
        decr j
      done
    done
  in
  let rec qs lo hi =
    if hi - lo < cutoff then insertion lo hi
    else begin
      let mid = lo + ((hi - lo) / 2) in
      (* median-of-three pivot selection, pivot parked at [lo] *)
      if key buf w kf mid < key buf w kf lo then swap_records buf w mid lo;
      if key buf w kf hi < key buf w kf lo then swap_records buf w hi lo;
      if key buf w kf hi < key buf w kf mid then swap_records buf w hi mid;
      swap_records buf w lo mid;
      let pivot = key buf w kf lo in
      let i = ref lo and j = ref (hi + 1) in
      let continue = ref true in
      while !continue do
        incr i;
        while !i <= hi && key buf w kf !i < pivot do incr i done;
        decr j;
        while key buf w kf !j > pivot do decr j done;
        if !i >= !j then continue := false else swap_records buf w !i !j
      done;
      swap_records buf w lo !j;
      qs lo (!j - 1);
      qs (!j + 1) hi
    end
  in
  if n > 1 then qs 0 (n - 1)

let qsort_with_comparator (buf : U.buf) w n ~cmp =
  let insertion lo hi =
    for i = lo + 1 to hi do
      let j = ref i in
      while !j > lo && cmp (!j - 1) !j > 0 do
        swap_records buf w (!j - 1) !j;
        decr j
      done
    done
  in
  let rec qs lo hi =
    if hi - lo < cutoff then insertion lo hi
    else begin
      let mid = lo + ((hi - lo) / 2) in
      if cmp mid lo < 0 then swap_records buf w mid lo;
      if cmp hi lo < 0 then swap_records buf w hi lo;
      if cmp hi mid < 0 then swap_records buf w hi mid;
      swap_records buf w lo mid;
      let i = ref lo and j = ref (hi + 1) in
      let continue = ref true in
      while !continue do
        incr i;
        while !i <= hi && cmp !i lo < 0 do incr i done;
        decr j;
        while cmp !j lo > 0 do decr j done;
        if !i >= !j then continue := false else swap_records buf w !i !j
      done;
      swap_records buf w lo !j;
      qs lo (!j - 1);
      qs (!j + 1) hi
    end
  in
  if n > 1 then qs 0 (n - 1)

(* Pivot-relative comparison needs care: the pivot sits at [lo] and moves
   when records swap, so [qsort_with_comparator] compares against index
   [lo] directly; because the Hoare scan never swaps index [lo] until the
   final pivot placement, this is sound. *)

(* [buf] holds exactly the [n] records to sort. *)
let sort_slice algorithm buf w kf n =
  match algorithm with
  | Radix -> radix_sort buf buf w kf n
  | Std -> std_sort buf w kf n
  | Qsort ->
      (* A closure invoked per comparison, comparing through the generic
         (boxed) path - the function-pointer-plus-no-inlining cost profile
         of libc qsort. *)
      let cmp i j =
        Stdlib.compare
          (Bigarray.Array1.unsafe_get buf ((i * w) + kf))
          (Bigarray.Array1.unsafe_get buf ((j * w) + kf))
      in
      qsort_with_comparator buf w n ~cmp

let sort algorithm ~src ~dst ~key_field =
  let w = U.width src in
  if U.width dst <> w then invalid_arg "Sort.sort: width mismatch";
  if key_field < 0 || key_field >= w then invalid_arg "Sort.sort: bad key field";
  let n = U.length src in
  let first = U.reserve dst n in
  (* Sorting the slice starting at [first] composes with pre-filled
     destinations. *)
  let slice = Bigarray.Array1.sub (U.raw dst) (first * w) (n * w) in
  let rows = Bigarray.Array1.sub (U.raw src) 0 (n * w) in
  match algorithm with
  | Radix -> radix_sort rows slice w key_field n
  | Std | Qsort ->
      Bigarray.Array1.blit rows slice;
      sort_slice algorithm slice w key_field n

let sort_in_place algorithm ua ~key_field =
  if not (U.is_open ua) then raise (U.Sealed { id = U.id ua });
  let w = U.width ua and n = U.length ua in
  if key_field < 0 || key_field >= w then invalid_arg "Sort.sort_in_place: bad key field";
  sort_slice algorithm (Bigarray.Array1.sub (U.raw ua) 0 (n * w)) w key_field n
