(* Reference results computed in plain OCaml from the generated records,
   without the trusted primitives, and the per-window comparison that
   decides which windows failed. *)

module Datagen = Sbt_workloads.Datagen
module Rng = Sbt_crypto.Rng

type window_ref =
  | Exact of int32 array array  (** rows in their defined order *)
  | Bag of int32 array array  (** rows whose order is undefined, sorted *)
  | Cross of (int32 * int32 array * int32 array) array
      (** join: per key ascending, the sorted left and right values; the
          expected rows are every (key, left, right) combination *)
  | Top_k of { k : int; counts : (int32 * int32) array }
      (** (key, count) candidates; which of equal counts make the cut is
          undefined, so only the counts ranked and each row's own count
          are checked *)

type t = window_ref array

(* Replays the generator's record stream: same RNG, same event-time
   formula and stream assignment as [Datagen.frames] without disorder. *)
let iter_records (spec : Datagen.spec) f =
  let rng = Rng.create ~seed:spec.Datagen.seed in
  let epw = spec.events_per_window in
  for idx = 0 to Datagen.total_events spec - 1 do
    let w = idx / epw and i = idx mod epw in
    let ts = (w * spec.window_ticks) + (i * spec.window_ticks / epw) in
    let stream = if spec.streams = 1 then 0 else i mod spec.streams in
    f ~window:w ~stream (spec.gen_record rng ~ts:(Int32.of_int ts))
  done

(* Rows of one width sort lexicographically under [compare]. *)
let sorted_rows rows =
  let a = Array.copy rows in
  Array.sort compare a;
  a

let sorted_values l =
  let a = Array.of_list l in
  Array.sort Int32.compare a;
  a

let distinct spec =
  let keys = Array.init spec.Datagen.windows (fun _ -> Hashtbl.create 4096) in
  iter_records spec (fun ~window ~stream:_ r -> Hashtbl.replace keys.(window) r.(0) ());
  Array.map (fun h -> Exact [| [| Int32.of_int (Hashtbl.length h) |] |]) keys

(* Per-plug average load, plugs strictly above the all-plug average,
   counted per house (plug key asr 8), top [k] houses by count. *)
let power ~k spec =
  let plugs = Array.init spec.Datagen.windows (fun _ -> Hashtbl.create 1024) in
  iter_records spec (fun ~window ~stream:_ r ->
      let h = plugs.(window) in
      let sum, n = Option.value ~default:(0, 0) (Hashtbl.find_opt h r.(0)) in
      Hashtbl.replace h r.(0) (sum + Int32.to_int r.(1), n + 1));
  Array.map
    (fun h ->
      let avgs = Hashtbl.fold (fun key (sum, n) acc -> (key, sum / n) :: acc) h [] in
      let global = List.fold_left (fun acc (_, a) -> acc + a) 0 avgs / max 1 (List.length avgs) in
      let houses = Hashtbl.create 64 in
      List.iter
        (fun (key, a) ->
          if a > global then begin
            let house = Int32.shift_right key 8 in
            Hashtbl.replace houses house (1 + Option.value ~default:0 (Hashtbl.find_opt houses house))
          end)
        avgs;
      let counts =
        Hashtbl.fold (fun house c acc -> (house, Int32.of_int c) :: acc) houses [] |> Array.of_list
      in
      Top_k { k; counts })
    plugs

let join spec =
  let sides = Array.init spec.Datagen.windows (fun _ -> Hashtbl.create 4096) in
  iter_records spec (fun ~window ~stream r ->
      let h = sides.(window) in
      let l, rt = Option.value ~default:([], []) (Hashtbl.find_opt h r.(0)) in
      Hashtbl.replace h r.(0) (if stream = 0 then (r.(1) :: l, rt) else (l, r.(1) :: rt)));
  Array.map
    (fun h ->
      let groups =
        Hashtbl.fold
          (fun key (l, r) acc ->
            if l = [] || r = [] then acc else (key, sorted_values l, sorted_values r) :: acc)
          h []
        |> Array.of_list
      in
      Array.sort (fun (a, _, _) (b, _, _) -> Int32.compare a b) groups;
      Cross groups)
    sides

(* Filter value >= 0, key asr 8, keep house 5, filter value <= 1431655765:
   the five stages of [Pipeline.fps_chain]. *)
let fps spec =
  let rows = Array.init spec.Datagen.windows (fun _ -> ref []) in
  iter_records spec (fun ~window ~stream:_ r ->
      let v = r.(1) in
      let house = Int32.shift_right r.(0) 8 in
      if Int32.compare v 0l >= 0 && Int32.compare v 1431655765l <= 0 && house = 5l then
        rows.(window) := [| house; v; r.(2) |] :: !(rows.(window)));
  Array.map (fun l -> Bag (sorted_rows (Array.of_list !l))) rows

let reference (w : Workload.t) =
  let spec = w.Workload.bench.Sbt_workloads.Benchmarks.spec in
  match w.Workload.kind with
  | Workload.Distinct -> distinct spec
  | Workload.Power -> power ~k:10 spec
  | Workload.Join -> join spec
  | Workload.Fps -> fps spec

let cross_matches groups actual =
  let expected = Array.fold_left (fun acc (_, l, r) -> acc + (Array.length l * Array.length r)) 0 groups in
  Array.length actual = expected
  &&
  let actual = sorted_rows actual in
  let pos = ref 0 in
  Array.for_all
    (fun (key, l, r) ->
      Array.for_all
        (fun vl ->
          Array.for_all
            (fun vr ->
              let row = actual.(!pos) in
              incr pos;
              Array.length row = 3 && row.(0) = key && row.(1) = vl && row.(2) = vr)
            r)
        l)
    groups

(* [actual] must be [min k candidates] distinct candidates, each with its
   own count, in descending count order, with the top counts. *)
let top_k_matches ~k counts actual =
  let want = Array.map snd counts in
  Array.sort (fun a b -> Int32.compare b a) want;
  let n = min k (Array.length want) in
  Array.length actual = n
  && Array.for_all (fun row -> Array.length row = 2 && Array.mem (row.(0), row.(1)) counts) actual
  && List.length (List.sort_uniq Int32.compare (Array.to_list (Array.map (fun row -> row.(0)) actual))) = n
  && Array.for_all2 (fun row c -> row.(1) = c) actual (Array.sub want 0 n)

let matches (r : window_ref) (rows : int32 array array) =
  match r with
  | Exact e -> e = rows
  | Bag e -> e = sorted_rows rows
  | Cross groups -> cross_matches groups rows
  | Top_k { k; counts } -> top_k_matches ~k counts rows

let failed_windows ~(reference : t) ~verdict_ok (opened : (int * int32 array array option) list) =
  let failed = ref 0 in
  Array.iteri
    (fun w r ->
      let ok =
        verdict_ok
        && match List.assoc_opt w opened with Some (Some rows) -> matches r rows | _ -> false
      in
      if not ok then incr failed)
    reference;
  !failed
