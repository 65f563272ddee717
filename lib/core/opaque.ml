(* References are uniformly random, so their low bits are a hash. *)
module Refs = Hashtbl.Make (struct
  type t = int64 let equal = Int64.equal let hash r = Int64.to_int r land max_int end)

type t = { rng : Sbt_crypto.Rng.t; table : Sbt_umem.Uarray.t Refs.t }

exception Invalid_reference of int64

let create ~rng = { rng; table = Refs.create 256 }

let rec fresh_ref t =
  let r = Sbt_crypto.Rng.next_int64 t.rng in
  if Int64.equal r 0L || Refs.mem t.table r then fresh_ref t else r

let register t ua =
  let r = fresh_ref t in
  Refs.replace t.table r ua;
  r

let resolve t r =
  match Refs.find_opt t.table r with
  | Some ua -> ua
  | None -> raise (Invalid_reference r)

let remove t r =
  if not (Refs.mem t.table r) then raise (Invalid_reference r);
  Refs.remove t.table r

let live_count t = Refs.length t.table
let mem t r = Refs.mem t.table r

(* Checkpoint restore: re-bind a recorded (reference, uArray) pair
   without drawing from the RNG — the generator's limbs are restored
   separately and must continue the original draw sequence exactly. *)
let restore t ~ref_ ua =
  if Int64.equal ref_ 0L then invalid_arg "Opaque.restore: zero reference";
  if Refs.mem t.table ref_ then invalid_arg "Opaque.restore: reference already bound";
  Refs.replace t.table ref_ ua

(* Canonical order for serialization: Hashtbl iteration order is
   unspecified, uArray ids are unique and stable. *)
let sorted_bindings t =
  Refs.fold (fun r ua acc -> (r, ua) :: acc) t.table []
  |> List.sort (fun (_, a) (_, b) -> compare (Sbt_umem.Uarray.id a) (Sbt_umem.Uarray.id b))
