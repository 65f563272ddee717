module U = Sbt_umem.Uarray

(* Merge raw buffers [a] (na records) and [b] (nb) into [dst] at [dst_r0].
   The record copy is open-coded: a helper containing a loop would not be
   inlined, and a call per record dominates this - one of the two hottest
   loops in the engine (paper 5). *)
let merge_buffers (a : U.buf) na (b : U.buf) nb (dst : U.buf) dst_r0 w kf =
  let o = ref (dst_r0 * w) in
  let end_a = na * w and end_b = nb * w in
  let ia = ref 0 and jb = ref 0 in
  (* [ia]/[jb] are field offsets (record index * w), avoiding a multiply
     per access. *)
  while !ia < end_a && !jb < end_b do
    let ka = Int32.to_int (Bigarray.Array1.unsafe_get a (!ia + kf)) in
    let kb = Int32.to_int (Bigarray.Array1.unsafe_get b (!jb + kf)) in
    if ka <= kb then begin
      for f = 0 to w - 1 do
        Bigarray.Array1.unsafe_set dst (!o + f) (Bigarray.Array1.unsafe_get a (!ia + f))
      done;
      ia := !ia + w
    end
    else begin
      for f = 0 to w - 1 do
        Bigarray.Array1.unsafe_set dst (!o + f) (Bigarray.Array1.unsafe_get b (!jb + f))
      done;
      jb := !jb + w
    end;
    o := !o + w
  done;
  while !ia < end_a do
    for f = 0 to w - 1 do
      Bigarray.Array1.unsafe_set dst (!o + f) (Bigarray.Array1.unsafe_get a (!ia + f))
    done;
    ia := !ia + w;
    o := !o + w
  done;
  while !jb < end_b do
    for f = 0 to w - 1 do
      Bigarray.Array1.unsafe_set dst (!o + f) (Bigarray.Array1.unsafe_get b (!jb + f))
    done;
    jb := !jb + w;
    o := !o + w
  done;
  ()

let merge2 ~a ~b ~dst ~key_field =
  let w = U.width a in
  if U.width b <> w || U.width dst <> w then invalid_arg "Merge.merge2: width mismatch";
  let na = U.length a and nb = U.length b in
  let first = U.reserve dst (na + nb) in
  merge_buffers (U.raw a) na (U.raw b) nb (U.raw dst) first w key_field

(* A head is packed as [(key lsl 20) lor input]: int order on heads is
   key order, ties going to the earlier input. *)
let input_bits = 20
let max_inputs = 1 lsl input_bits
let head (b : U.buf) p kf i =
  (Int32.to_int (Bigarray.Array1.unsafe_get b (p + kf)) lsl input_bits) lor i

(* Place [v] at hole [i] of the heap [h] of [size] heads, moving the
   smaller child up while it sorts before [v]. *)
let rec sift_down (h : int array) size i v =
  let c = (2 * i) + 1 in
  let c = if c + 1 < size && h.(c + 1) < h.(c) then c + 1 else c in
  if c < size && h.(c) < v then (h.(i) <- h.(c); sift_down h size c v) else h.(i) <- v

(* [run_<w> b p e kf lim out o] copies the records of [b] from field
   offset [p] (below [e]) while their keys are below [lim], to [out] from
   offset [o], and returns the offset past the last record copied.  One
   function for each width a benchmark merges, with [below] and the
   stores inlined by [@inline] (ocamlopt without flambda would call
   them), and the field loop for every other width: there, the field
   loop costs 1.4-1.9x, and one function that matches on [w] around the
   stores 1.1-1.2x. *)
let[@inline] below (b : U.buf) p e kf lim =
  p < e && Int32.to_int (Bigarray.Array1.unsafe_get b (p + kf)) < lim

let[@inline] move3 (b : U.buf) p (out : U.buf) o =
  Bigarray.Array1.unsafe_set out o (Bigarray.Array1.unsafe_get b p);
  Bigarray.Array1.unsafe_set out (o + 1) (Bigarray.Array1.unsafe_get b (p + 1));
  Bigarray.Array1.unsafe_set out (o + 2) (Bigarray.Array1.unsafe_get b (p + 2))

let[@inline] move4 (b : U.buf) p (out : U.buf) o =
  move3 b p out o;
  Bigarray.Array1.unsafe_set out (o + 3) (Bigarray.Array1.unsafe_get b (p + 3))

let rec run_4 b p e kf lim out o =
  if below b p e kf lim then (move4 b p out o; run_4 b (p + 4) e kf lim out (o + 4)) else p

let rec run_3 b p e kf lim out o =
  if below b p e kf lim then (move3 b p out o; run_3 b (p + 3) e kf lim out (o + 3)) else p

let rec run_any w b p e kf lim (out : U.buf) o =
  if below b p e kf lim then begin
    for f = 0 to w - 1 do
      Bigarray.Array1.unsafe_set out (o + f) (Bigarray.Array1.unsafe_get b (p + f))
    done;
    run_any w b (p + w) e kf lim out (o + w)
  end
  else p

let kway ~inputs ~dst ~key_field =
  let w = U.width dst and srcs = Array.of_list inputs in
  if Array.length srcs > max_inputs then invalid_arg "Merge.kway: too many inputs";
  Array.iter (fun ua -> if U.width ua <> w then invalid_arg "Merge.kway: width mismatch") srcs;
  let run = match w with 4 -> run_4 | 3 -> run_3 | _ -> run_any w in
  let bufs = Array.map U.raw srcs and ends = Array.map (fun ua -> U.length ua * w) srcs in
  let pos = Array.make (Array.length srcs) 0 and out = U.raw dst in
  let o = ref (w * U.reserve dst (Array.fold_left (fun n ua -> n + U.length ua) 0 srcs)) in
  let live = List.filter (fun i -> ends.(i) > 0) (List.init (Array.length srcs) Fun.id) in
  (* The non-empty inputs' heads, ascending: a sorted array is a heap. *)
  let heap = Array.of_list (List.map (fun i -> head bufs.(i) 0 key_field i) live) in
  Array.sort Int.compare heap;
  let size = ref (Array.length heap) in
  while !size > 1 do
    (* Copy the root input [r]'s records while they sort before the
       runner-up, the smaller child [c] with head [next]: while their
       keys are below [lim], [next]'s key plus one if [r] is the earlier
       input.  Then [next] moves up to the root and [r]'s new head sifts
       down from [c]'s slot. *)
    let r = heap.(0) land (max_inputs - 1) in
    let c = if !size > 2 && heap.(2) < heap.(1) then 2 else 1 in
    let next = heap.(c) in
    let lim = (next asr input_bits) + if r < next land (max_inputs - 1) then 1 else 0 in
    let b = bufs.(r) and e = ends.(r) and p = pos.(r) in
    let q = run b p e key_field lim out !o in
    o := !o + (q - p);
    pos.(r) <- q;
    if q < e then (heap.(0) <- next; sift_down heap !size c (head b q key_field r))
    else (decr size; sift_down heap !size 0 heap.(!size))
  done;
  (* The last input left goes in one blit. *)
  if !size = 1 then
    let r = heap.(0) land (max_inputs - 1) in
    let n = ends.(r) - pos.(r) in
    Bigarray.Array1.blit (Bigarray.Array1.sub bufs.(r) pos.(r) n) (Bigarray.Array1.sub out !o n)
