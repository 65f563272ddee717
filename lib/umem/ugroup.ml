type t = {
  id : int;
  vbase : int64;
  mutable arrays : Uarray.t array; (* append-only; [front] indexes the reclamation point *)
  mutable count : int;
  mutable front : int; (* members [0, front) have had their pages released *)
}

let create ~id ~vbase = { id; vbase; arrays = [||]; count = 0; front = 0 }

let id t = t.id
let vbase t = t.vbase

let last t = if t.count = 0 then None else Some t.arrays.(t.count - 1)

let append t ua =
  (match last t with
  | Some prev when Uarray.is_open prev ->
      invalid_arg "Ugroup.append: group tail is still open"
  | Some _ | None -> ());
  if t.count = Array.length t.arrays then begin
    let bigger = Array.make (max 1 (2 * t.count)) ua in
    Array.blit t.arrays 0 bigger 0 t.count;
    t.arrays <- bigger
  end;
  t.arrays.(t.count) <- ua;
  t.count <- t.count + 1

let member_count t = t.count
let live_member_count t = t.count - t.front

let reclaim t =
  let released = ref 0 in
  let continue = ref true in
  while !continue && t.front < t.count do
    let ua = t.arrays.(t.front) in
    match Uarray.state ua with
    | Uarray.Retired ->
        Uarray.release_pages ua;
        t.front <- t.front + 1;
        incr released
    | Uarray.Open | Uarray.Produced -> continue := false
  done;
  !released

let is_exhausted t = t.count > 0 && t.front = t.count

let pinned_bytes t =
  (* Committed bytes of retired members sitting behind a live one. *)
  let acc = ref 0 in
  let seen_live = ref false in
  for i = t.front to t.count - 1 do
    let ua = t.arrays.(i) in
    match Uarray.state ua with
    | Uarray.Open | Uarray.Produced -> seen_live := true
    | Uarray.Retired -> if !seen_live then acc := !acc + Uarray.committed_bytes ua
  done;
  !acc

