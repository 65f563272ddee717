module U = Sbt_umem.Uarray

let get (buf : U.buf) w r f = Bigarray.Array1.unsafe_get buf ((r * w) + f)
let get_int (buf : U.buf) w r f = Int32.to_int (Bigarray.Array1.unsafe_get buf ((r * w) + f))

(* One (left start, left length, right start, right length) per matching
   key, ascending by key. *)
type runs =
  { left : U.t; right : U.t; key_field : int; spans : (int * int * int * int) list; rows : int }

(* One walk over both sorted inputs.  Keys compare as native ints in the
   hot scan. *)
let runs ~left ~right ~key_field =
  let wl = U.width left and wr = U.width right and lb = U.raw left and rb = U.raw right in
  let nl = U.length left and nr = U.length right in
  let i = ref 0 and j = ref 0 and spans = ref [] and rows = ref 0 in
  while !i < nl && !j < nr do
    let kl = get_int lb wl !i key_field and kr = get_int rb wr !j key_field in
    if kl < kr then incr i
    else if kl > kr then incr j
    else begin
      let li = !i and rj = !j in
      while !i < nl && get_int lb wl !i key_field = kl do incr i done;
      while !j < nr && get_int rb wr !j key_field = kl do incr j done;
      spans := (li, !i - li, rj, !j - rj) :: !spans;
      rows := !rows + ((!i - li) * (!j - rj))
    end
  done;
  { left; right; key_field; spans = List.rev !spans; rows = !rows }

let size r = r.rows

let fill r ~dst ~value_field =
  if U.width dst <> 3 then invalid_arg "Join.fill: dst width must be 3";
  let wl = U.width r.left and wr = U.width r.right in
  let lb = U.raw r.left and rb = U.raw r.right and out = U.raw dst in
  let o = ref (3 * U.reserve dst r.rows) in
  List.iter
    (fun (li, ll, rj, rl) ->
      let k = get lb wl li r.key_field in
      for a = li to li + ll - 1 do
        let vl = get lb wl a value_field in
        for b = rj to rj + rl - 1 do
          Bigarray.Array1.unsafe_set out !o k;
          Bigarray.Array1.unsafe_set out (!o + 1) vl;
          Bigarray.Array1.unsafe_set out (!o + 2) (get rb wr b value_field);
          o := !o + 3
        done
      done)
    r.spans
