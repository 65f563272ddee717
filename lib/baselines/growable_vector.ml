module Page_pool = Sbt_umem.Page_pool
module Uarray = Sbt_umem.Uarray

type t = {
  pool : Page_pool.t;
  width : int;
  mutable buf : Uarray.buf;
  mutable len : int;
  mutable cap : int;
  mutable committed : int;
  mutable relocations : int;
}

let initial_capacity = 16

let create ~pool ~width () =
  if width <= 0 then invalid_arg "Growable_vector.create: width must be positive";
  let buf = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout (initial_capacity * width) in
  { pool; width; buf; len = 0; cap = initial_capacity; committed = 0; relocations = 0 }

let length t = t.len
let capacity t = t.cap
let relocations t = t.relocations

(* Doubling growth: allocate a fresh region, copy everything over, release
   the old pages — the relocation cost uArray avoids.  During the copy both
   regions are committed, which is also how a real vector behaves. *)
let grow_capacity t needed =
  let new_cap = ref (max t.cap 1) in
  while !new_cap < needed do
    new_cap := !new_cap * 2
  done;
  let new_pages = Page_pool.pages_for_bytes (!new_cap * t.width * 4) in
  Page_pool.commit t.pool ~pages:new_pages;
  let new_buf = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout (!new_cap * t.width) in
  Bigarray.Array1.blit
    (Bigarray.Array1.sub t.buf 0 (t.len * t.width))
    (Bigarray.Array1.sub new_buf 0 (t.len * t.width));
  Page_pool.release t.pool ~pages:t.committed;
  t.buf <- new_buf;
  t.cap <- !new_cap;
  t.committed <- new_pages;
  t.relocations <- t.relocations + 1

let ensure t needed =
  if needed > t.cap then grow_capacity t needed
  else begin
    let pages = Page_pool.pages_for_bytes (needed * t.width * 4) in
    if pages > t.committed then begin
      Page_pool.commit t.pool ~pages:(pages - t.committed);
      t.committed <- pages
    end
  end

let reserve t n =
  if n < 0 then invalid_arg "Growable_vector.reserve: negative count";
  let first = t.len in
  ensure t (t.len + n);
  t.len <- t.len + n;
  first

let append_fields3 t a b c =
  if t.width <> 3 then invalid_arg "Growable_vector.append_fields3: width <> 3";
  let r = reserve t 1 in
  let base = r * 3 in
  Bigarray.Array1.unsafe_set t.buf base a;
  Bigarray.Array1.unsafe_set t.buf (base + 1) b;
  Bigarray.Array1.unsafe_set t.buf (base + 2) c

let append t fields =
  if Array.length fields <> t.width then invalid_arg "Growable_vector.append: wrong field count";
  let r = reserve t 1 in
  for i = 0 to t.width - 1 do
    Bigarray.Array1.unsafe_set t.buf ((r * t.width) + i) fields.(i)
  done

let get_field t r f =
  if r < 0 || r >= t.len || f < 0 || f >= t.width then
    invalid_arg "Growable_vector.get_field: out of bounds";
  Bigarray.Array1.unsafe_get t.buf ((r * t.width) + f)

let set_field t r f v =
  if r < 0 || r >= t.len || f < 0 || f >= t.width then
    invalid_arg "Growable_vector.set_field: out of bounds";
  Bigarray.Array1.unsafe_set t.buf ((r * t.width) + f) v

let raw t = t.buf

let free t =
  Page_pool.release t.pool ~pages:t.committed;
  t.committed <- 0;
  t.len <- 0
