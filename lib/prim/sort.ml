module U = Sbt_umem.Uarray

(* Radix sort: LSD over four 8-bit digits of the key biased by 2^31, which
   orders signed keys as unsigned ones.  This is the model of the
   hand-vectorized NEON sort: no comparisons, sequential passes over
   contiguous memory.  One pass builds all four digit histograms; a digit
   on which every key agrees is skipped, since a stable pass over it is
   the identity. *)

let digit k p = ((k + 0x8000_0000) lsr (8 * p)) land 0xFF

(* The scatter's steps for one record, inlined by [@inline] into each
   width's loop (ocamlopt without flambda would call them): [slot] takes
   the next place, as a field offset, in the bucket of the key at field
   offset [at] of [s] for digit [sh / 8], whose table starts at [h], and
   moves the bucket on by [w] fields; [move3]/[move4] copy a record from
   field offset [b] of [s] to [o] of [t].  [d] is [h] plus one byte,
   below 1024, so [hist] is used unchecked. *)
let[@inline] slot (hist : int array) h sh (s : U.buf) at w =
  let d = h + (((Int32.to_int (Bigarray.Array1.unsafe_get s at) + 0x8000_0000) lsr sh) land 0xFF) in
  let o = Array.unsafe_get hist d in
  Array.unsafe_set hist d (o + w);
  o

let[@inline] move3 (s : U.buf) b (t : U.buf) o =
  Bigarray.Array1.unsafe_set t o (Bigarray.Array1.unsafe_get s b);
  Bigarray.Array1.unsafe_set t (o + 1) (Bigarray.Array1.unsafe_get s (b + 1));
  Bigarray.Array1.unsafe_set t (o + 2) (Bigarray.Array1.unsafe_get s (b + 2))

let[@inline] move4 (s : U.buf) b (t : U.buf) o =
  move3 s b t o;
  Bigarray.Array1.unsafe_set t (o + 3) (Bigarray.Array1.unsafe_get s (b + 3))

(* Sort the [n] records of [src] into [dst]; [src == dst] sorts in place.
   The passes alternate between [dst] and one scratch buffer, starting so
   that the last pass writes [dst]. *)
let radix_sort (src : U.buf) (dst : U.buf) w kf n =
  let hist = Array.make 1024 0 in
  for r = 0 to n - 1 do
    (* [digit k p] for p = 0..3, unrolled: a loop here costs 16%.  Each index
       is a multiple of 256 plus one byte, below 1024, so [hist] is used
       unchecked. *)
    let u = Int32.to_int (Bigarray.Array1.unsafe_get src ((r * w) + kf)) + 0x8000_0000 in
    let d0 = u land 0xFF and d1 = 256 + ((u lsr 8) land 0xFF) in
    let d2 = 512 + ((u lsr 16) land 0xFF) and d3 = 768 + ((u lsr 24) land 0xFF) in
    Array.unsafe_set hist d0 (Array.unsafe_get hist d0 + 1);
    Array.unsafe_set hist d1 (Array.unsafe_get hist d1 + 1);
    Array.unsafe_set hist d2 (Array.unsafe_get hist d2 + 1);
    Array.unsafe_set hist d3 (Array.unsafe_get hist d3 + 1)
  done;
  let k0 = if n > 0 then Int32.to_int (Bigarray.Array1.unsafe_get src kf) else 0 in
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
      (* Each bucket's start, as a field offset into [t]. *)
      let acc = ref 0 in
      for d = h to h + 255 do
        let c = hist.(d) in
        hist.(d) <- !acc;
        acc := !acc + (c * w)
      done;
      (* The scatter: one loop for each width a benchmark sorts (the
         field loop costs 1.5x there; one loop that matches on [w] around
         the stores, 1.1x), and the field loop for the others. *)
      let sh = 8 * p in
      (match w with
      | 4 -> for r = 0 to n - 1 do let b = r * 4 in move4 s b t (slot hist h sh s (b + kf) 4) done
      | 3 -> for r = 0 to n - 1 do let b = r * 3 in move3 s b t (slot hist h sh s (b + kf) 3) done
      | _ ->
          for r = 0 to n - 1 do
            let b = r * w in
            let o = slot hist h sh s (b + kf) w in
            for f = 0 to w - 1 do
              Bigarray.Array1.unsafe_set t (o + f) (Bigarray.Array1.unsafe_get s (b + f))
            done
          done);
      from := t)
    live

let sort ~src ~dst ~key_field =
  let w = U.width src in
  if U.width dst <> w then invalid_arg "Sort.sort: width mismatch";
  if key_field < 0 || key_field >= w then invalid_arg "Sort.sort: bad key field";
  let n = U.length src in
  let first = U.reserve dst n in
  (* Sorting the slice starting at [first] composes with pre-filled
     destinations. *)
  let slice = Bigarray.Array1.sub (U.raw dst) (first * w) (n * w) in
  radix_sort (Bigarray.Array1.sub (U.raw src) 0 (n * w)) slice w key_field n

let sort_in_place ua ~key_field =
  if not (U.is_open ua) then raise (U.Sealed { id = U.id ua });
  let w = U.width ua and n = U.length ua in
  if key_field < 0 || key_field >= w then invalid_arg "Sort.sort_in_place: bad key field";
  let rows = Bigarray.Array1.sub (U.raw ua) 0 (n * w) in
  radix_sort rows rows w key_field n
