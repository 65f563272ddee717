module U = Sbt_umem.Uarray

type algorithm = Std | Qsort

(* The key read and the record swap are [@inline], so [std_sort]'s
   comparisons and moves are straight-line code, as a template
   instantiation of std::sort on a struct array compiles to; ocamlopt
   without flambda would otherwise call both.  The swap moves the three
   fields of the width the ablation sorts without a loop. *)
let[@inline] key (buf : U.buf) w kf r = Int32.to_int (Bigarray.Array1.unsafe_get buf ((r * w) + kf))

let[@inline] swap_field (buf : U.buf) a b =
  let t = Bigarray.Array1.unsafe_get buf a in
  Bigarray.Array1.unsafe_set buf a (Bigarray.Array1.unsafe_get buf b);
  Bigarray.Array1.unsafe_set buf b t

let[@inline] swap_records (buf : U.buf) w i j =
  let bi = i * w and bj = j * w in
  if w = 3 then begin
    swap_field buf bi bj;
    swap_field buf (bi + 1) (bj + 1);
    swap_field buf (bi + 2) (bj + 2)
  end
  else
    for f = 0 to w - 1 do
      swap_field buf (bi + f) (bj + f)
    done

(* libc qsort knows only the element size, so it swaps through a generic
   loop it calls for every move. *)
let swap_generic (buf : U.buf) w i j =
  for f = 0 to w - 1 do
    swap_field buf ((i * w) + f) ((j * w) + f)
  done

(* Two separate implementations of the same introsort-lite (quicksort
   with median-of-three and an insertion-sort cutoff): the paper's gap
   between std::sort and qsort comes from comparator inlining, so that
   structural difference is kept rather than sharing the code. *)

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

(* The pivot sits at [lo] and the Hoare scan never swaps index [lo] until
   the final pivot placement, so comparing against index [lo] is sound. *)
let qsort_with_comparator (buf : U.buf) w n ~cmp =
  let insertion lo hi =
    for i = lo + 1 to hi do
      let j = ref i in
      while !j > lo && cmp (!j - 1) !j > 0 do
        swap_generic buf w (!j - 1) !j;
        decr j
      done
    done
  in
  let rec qs lo hi =
    if hi - lo < cutoff then insertion lo hi
    else begin
      let mid = lo + ((hi - lo) / 2) in
      if cmp mid lo < 0 then swap_generic buf w mid lo;
      if cmp hi lo < 0 then swap_generic buf w hi lo;
      if cmp hi mid < 0 then swap_generic buf w hi mid;
      swap_generic buf w lo mid;
      let i = ref lo and j = ref (hi + 1) in
      let continue = ref true in
      while !continue do
        incr i;
        while !i <= hi && cmp !i lo < 0 do incr i done;
        decr j;
        while cmp !j lo > 0 do decr j done;
        if !i >= !j then continue := false else swap_generic buf w !i !j
      done;
      swap_generic buf w lo !j;
      qs lo (!j - 1);
      qs (!j + 1) hi
    end
  in
  if n > 1 then qs 0 (n - 1)

(* [buf] holds exactly the [n] records to sort. *)
let sort_slice algorithm buf w kf n =
  match algorithm with
  | Std -> std_sort buf w kf n
  | Qsort ->
      (* A closure invoked per comparison, comparing through the generic
         (boxed) path: the function-pointer-plus-no-inlining cost profile
         of libc qsort. *)
      let cmp i j =
        Stdlib.compare
          (Bigarray.Array1.unsafe_get buf ((i * w) + kf))
          (Bigarray.Array1.unsafe_get buf ((j * w) + kf))
      in
      qsort_with_comparator buf w n ~cmp

let sort algorithm ~src ~dst ~key_field =
  let w = U.width src in
  if U.width dst <> w then invalid_arg "Comparison_sort.sort: width mismatch";
  if key_field < 0 || key_field >= w then invalid_arg "Comparison_sort.sort: bad key field";
  let n = U.length src in
  let first = U.reserve dst n in
  let slice = Bigarray.Array1.sub (U.raw dst) (first * w) (n * w) in
  Bigarray.Array1.blit (Bigarray.Array1.sub (U.raw src) 0 (n * w)) slice;
  sort_slice algorithm slice w key_field n

let sort_in_place algorithm ua ~key_field =
  if not (U.is_open ua) then raise (U.Sealed { id = U.id ua });
  let w = U.width ua and n = U.length ua in
  if key_field < 0 || key_field >= w then invalid_arg "Comparison_sort.sort_in_place: bad key field";
  sort_slice algorithm (Bigarray.Array1.sub (U.raw ua) 0 (n * w)) w key_field n
