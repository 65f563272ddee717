type state = Open | Produced | Retired
type scope = Streaming | State | Temporary
type buf = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  id : int;
  width : int;
  capacity : int;
  scope : scope;
  pool : Page_pool.t;
  buf : buf;
  mutable len : int;
  mutable state : state;
  mutable committed : int; (* pages charged to [pool] *)
  mutable pages_released : bool;
}

exception Full of { id : int; capacity : int }
exception Sealed of { id : int }

let create ~id ~pool ~width ~capacity ?(scope = Streaming) () =
  if width <= 0 then invalid_arg "Uarray.create: width must be positive";
  if capacity < 0 then invalid_arg "Uarray.create: negative capacity";
  let buf = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout (capacity * width) in
  { id; width; capacity; scope; pool; buf; len = 0; state = Open; committed = 0; pages_released = false }

let id t = t.id
let width t = t.width
let capacity t = t.capacity
let length t = t.len
let state t = t.state
let scope t = t.scope
let is_open t = match t.state with Open -> true | Produced | Retired -> false

let ensure_open t = match t.state with Open -> () | Produced | Retired -> raise (Sealed { id = t.id })

(* Charge pages for [new_len] records; growth is the only place pages are
   committed, so committed pages always cover [len]. *)
let grow_to t new_len =
  if new_len > t.capacity then raise (Full { id = t.id; capacity = t.capacity });
  let needed = Page_pool.pages_for_bytes (new_len * t.width * 4) in
  if needed > t.committed then begin
    Page_pool.commit t.pool ~pages:(needed - t.committed);
    t.committed <- needed
  end;
  t.len <- new_len

let reserve t n =
  ensure_open t;
  if n < 0 then invalid_arg "Uarray.reserve: negative count";
  let first = t.len in
  grow_to t (t.len + n);
  first

let append t fields =
  ensure_open t;
  if Array.length fields <> t.width then invalid_arg "Uarray.append: wrong field count";
  let r = t.len in
  grow_to t (r + 1);
  let base = r * t.width in
  for i = 0 to t.width - 1 do
    Bigarray.Array1.unsafe_set t.buf (base + i) fields.(i)
  done

let append_fields3 t a b c =
  ensure_open t;
  if t.width <> 3 then invalid_arg "Uarray.append_fields3: width <> 3";
  let r = t.len in
  grow_to t (r + 1);
  let base = r * 3 in
  Bigarray.Array1.unsafe_set t.buf base a;
  Bigarray.Array1.unsafe_set t.buf (base + 1) b;
  Bigarray.Array1.unsafe_set t.buf (base + 2) c

let append_blit t ~src ~src_pos ~len =
  ensure_open t;
  if src.width <> t.width then invalid_arg "Uarray.append_blit: width mismatch";
  if src_pos < 0 || len < 0 || src_pos + len > src.len then
    invalid_arg "Uarray.append_blit: bad range";
  let first = t.len in
  grow_to t (t.len + len);
  let dst_sub = Bigarray.Array1.sub t.buf (first * t.width) (len * t.width) in
  let src_sub = Bigarray.Array1.sub src.buf (src_pos * src.width) (len * src.width) in
  Bigarray.Array1.blit src_sub dst_sub

let get_field t r f =
  if r < 0 || r >= t.len || f < 0 || f >= t.width then invalid_arg "Uarray.get_field: out of bounds";
  Bigarray.Array1.unsafe_get t.buf ((r * t.width) + f)

let set_field t r f v =
  ensure_open t;
  if r < 0 || r >= t.len || f < 0 || f >= t.width then invalid_arg "Uarray.set_field: out of bounds";
  Bigarray.Array1.unsafe_set t.buf ((r * t.width) + f) v

let raw t = t.buf

let produce t =
  match t.state with
  | Open -> t.state <- Produced
  | Produced | Retired -> invalid_arg "Uarray.produce: not open"

let retire t =
  match t.state with
  | Open | Produced -> t.state <- Retired
  | Retired -> invalid_arg "Uarray.retire: already retired"

let release_pages t =
  (match t.state with
  | Retired -> ()
  | Open | Produced -> invalid_arg "Uarray.release_pages: not retired");
  if not t.pages_released then begin
    Page_pool.release t.pool ~pages:t.committed;
    t.committed <- 0;
    t.pages_released <- true
  end

let committed_pages t = t.committed
let committed_bytes t = t.committed * Page_pool.page_size
let bytes_len t = t.len * t.width * 4

let to_list t =
  List.init t.len (fun r -> Array.init t.width (fun f -> Bigarray.Array1.get t.buf ((r * t.width) + f)))
