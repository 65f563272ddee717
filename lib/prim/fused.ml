(* Fused super-kernel descriptors: an ordered chain of per-record
   primitives executed by one kernel (and one trusted entry).
   Only stateless 1-in/1-out per-record operators are fusable; anything
   that reorders, splits or aggregates records (Sort, Segment, per-key
   aggregation) breaks a chain. *)

type step =
  | F_filter_band of { field : int; lo : int32; hi : int32 }
  | F_select of { field : int; value : int32 }
  | F_project of { fields : int array }
  | F_shift_key of { field : int; shift : int }

let step_op = function
  | F_filter_band _ -> Primitive.Filter_band
  | F_select _ -> Primitive.Select
  | F_project _ -> Primitive.Project
  | F_shift_key _ -> Primitive.Shift_key

(* Record width after each step, threading projections through; [None] if
   any step references a field outside the width it actually sees (the
   in-TEE validity check before a fused chain may run). *)
let width_after w steps =
  let rec go cw = function
    | [] -> Some cw
    | F_filter_band { field; _ } :: rest | F_select { field; _ } :: rest ->
        if field < 0 || field >= cw then None else go cw rest
    | F_shift_key { field; shift } :: rest ->
        if field < 0 || field >= cw || shift < 0 || shift > 31 then None else go cw rest
    | F_project { fields } :: rest ->
        if Array.length fields = 0 then None
        else if Array.exists (fun f -> f < 0 || f >= cw) fields then None
        else go (Array.length fields) rest
  in
  go w steps

(* Widest row any step of the chain sees — scratch sizing for the
   kernel (a projection may widen by duplicating fields). *)
let max_width w steps =
  let rec go cw acc = function
    | [] -> acc
    | F_project { fields } :: rest ->
        let cw = Array.length fields in
        go cw (max acc cw) rest
    | _ :: rest -> go cw acc rest
  in
  go w w steps

(* --- the chain kernel -----------------------------------------------------

   Two passes over the input.  The first runs the whole chain on a
   scratch row (a projection or key shift can change what a later filter
   sees) and marks the survivors; the output is then allocated once, at
   its exact size, and the second pass re-evaluates only the survivors
   and writes them.

   The row holds native ints, so no field load allocates.  Fields
   load sign-extended, which keeps every compare equal to its int32 form,
   and [asr] equals [Int32.shift_right] for the shifts 0-31 that
   {!width_after} admits; survivors are written back with [Int32.of_int]. *)

module U = Sbt_umem.Uarray

(* Run [steps] over [row]; [true] iff the record survives every filter,
   with its output fields left in [row].  {!width_after} has checked each
   field against the width its step sees, and [row] and [tmp] hold the
   widest, so the accesses are unchecked. *)
let rec go steps (row : int array) (tmp : int array) =
  match steps with
  | [] -> true
  | F_filter_band { field; lo; hi } :: rest ->
      let v = Array.unsafe_get row field in
      v >= Int32.to_int lo && v <= Int32.to_int hi && go rest row tmp
  | F_select { field; value } :: rest ->
      Array.unsafe_get row field = Int32.to_int value && go rest row tmp
  | F_project { fields } :: rest ->
      for j = 0 to Array.length fields - 1 do
        Array.unsafe_set tmp j (Array.unsafe_get row (Array.unsafe_get fields j))
      done;
      for j = 0 to Array.length fields - 1 do
        Array.unsafe_set row j (Array.unsafe_get tmp j)
      done;
      go rest row tmp
  | F_shift_key { field; shift } :: rest ->
      Array.unsafe_set row field (Array.unsafe_get row field asr shift);
      go rest row tmp

let eval steps ~w ~(src : U.buf) ~r ~row ~tmp =
  for f = 0 to w - 1 do
    Array.unsafe_set row f (Int32.to_int (Bigarray.Array1.unsafe_get src ((r * w) + f)))
  done;
  go steps row tmp

let run ~steps ~src ~alloc =
  let w = U.width src in
  let dw =
    match width_after w steps with
    | Some d -> d
    | None -> invalid_arg "Fused.run: step chain invalid for input width"
  in
  let mw = max 1 (max_width w steps) in
  let row = Array.make mw 0 and tmp = Array.make mw 0 in
  let n = U.length src and buf = U.raw src in
  let survived = Bytes.make n '\000' in
  let kept = ref 0 in
  for r = 0 to n - 1 do
    if eval steps ~w ~src:buf ~r ~row ~tmp then begin
      Bytes.unsafe_set survived r '\001';
      incr kept
    end
  done;
  let dst = alloc !kept in
  if U.width dst <> dw then invalid_arg "Fused.run: output width mismatch";
  let out = U.raw dst in
  let o = ref (U.reserve dst !kept) in
  for r = 0 to n - 1 do
    if Bytes.unsafe_get survived r = '\001' then begin
      ignore (eval steps ~w ~src:buf ~r ~row ~tmp);
      let b = !o * dw in
      for f = 0 to dw - 1 do
        Bigarray.Array1.unsafe_set out (b + f) (Int32.of_int (Array.unsafe_get row f))
      done;
      incr o
    end
  done;
  dst

(* --- wire codec -----------------------------------------------------------

   Canonical byte encoding of a chain, carried in the fused-plan SMC
   descriptor and verbatim in the composite audit record (so the verifier
   replays exactly the parameters the TEE executed). *)

let u16 b v =
  Buffer.add_char b (Char.chr (v land 0xff));
  Buffer.add_char b (Char.chr ((v lsr 8) land 0xff))

let u32 b v =
  u16 b (Int32.to_int (Int32.logand v 0xffffl));
  u16 b (Int32.to_int (Int32.logand (Int32.shift_right_logical v 16) 0xffffl))

let encode_steps steps =
  let n = List.length steps in
  if n > 0xff then invalid_arg "Fused.encode_steps: too many steps";
  let b = Buffer.create 32 in
  Buffer.add_char b (Char.chr n);
  List.iter
    (fun s ->
      Buffer.add_char b (Char.chr (Primitive.to_id (step_op s)));
      match s with
      | F_filter_band { field; lo; hi } ->
          u16 b field;
          u32 b lo;
          u32 b hi
      | F_select { field; value } ->
          u16 b field;
          u32 b value
      | F_project { fields } ->
          u16 b (Array.length fields);
          Array.iter (u16 b) fields
      | F_shift_key { field; shift } ->
          u16 b field;
          u16 b shift)
    steps;
  Buffer.to_bytes b

let decode_steps bytes =
  let pos = ref 0 in
  let len = Bytes.length bytes in
  let byte () =
    if !pos >= len then raise Exit;
    let v = Char.code (Bytes.get bytes !pos) in
    incr pos;
    v
  in
  let u16 () =
    let a = byte () in
    a lor (byte () lsl 8)
  in
  let u32 () =
    let lo = u16 () in
    let hi = u16 () in
    Int32.logor (Int32.of_int lo) (Int32.shift_left (Int32.of_int hi) 16)
  in
  try
    let n = byte () in
    let steps =
      List.init n (fun _ ->
          match Primitive.of_id (byte ()) with
          | Some Primitive.Filter_band ->
              let field = u16 () in
              let lo = u32 () in
              let hi = u32 () in
              F_filter_band { field; lo; hi }
          | Some Primitive.Select ->
              let field = u16 () in
              let value = u32 () in
              F_select { field; value }
          | Some Primitive.Project ->
              let k = u16 () in
              F_project { fields = Array.init k (fun _ -> u16 ()) }
          | Some Primitive.Shift_key ->
              let field = u16 () in
              let shift = u16 () in
              F_shift_key { field; shift }
          | _ -> raise Exit)
    in
    if !pos = len then Some steps else None
  with Exit -> None
