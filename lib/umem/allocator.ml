type mode = Hint_guided | Producer_grouping

type hint = No_hint | Consumed_after of Uarray.t | Consumed_in_parallel

type t = {
  mode : mode;
  pool : Page_pool.t;
  vspace : Vspace.t;
  group_of : (int, Ugroup.t) Hashtbl.t; (* uarray id -> group *)
  producer_group : (int, Ugroup.t) Hashtbl.t; (* producer id -> its current group *)
  groups : (int, Ugroup.t) Hashtbl.t; (* group id -> live group *)
  mutable next_uarray_id : int;
  mutable next_group_id : int;
  mutable live_arrays : int;
  mutable observer : (Sbt_obs.Tracer.t * (unit -> float)) option;
}

let create ?(mode = Hint_guided) ~pool () =
  {
    mode;
    pool;
    (* one secure-DRAM-sized virtual range per uGroup *)
    vspace = Vspace.create ~stride_bytes:(Page_pool.budget_bytes pool) ();
    group_of = Hashtbl.create 64;
    producer_group = Hashtbl.create 16;
    groups = Hashtbl.create 64;
    next_uarray_id = 0;
    next_group_id = 0;
    live_arrays = 0;
    observer = None;
  }

let mode t = t.mode

let set_observer t ~tracer ~now_ns = t.observer <- Some (tracer, now_ns)

let sample_pool t =
  match t.observer with
  | None -> ()
  | Some (tracer, now_ns) ->
      Sbt_obs.Tracer.counter tracer ~pid:1 ~tid:0 ~name:"secure-pool" ~ts_ns:(now_ns ())
        ~series:
          [
            ("committed_bytes", float_of_int (Page_pool.committed_bytes t.pool));
            ("live_uarrays", float_of_int t.live_arrays);
            ("live_groups", float_of_int (Hashtbl.length t.groups));
          ]

let fresh_group t =
  let g = Ugroup.create ~id:t.next_group_id ~vbase:(Vspace.reserve t.vspace) in
  t.next_group_id <- t.next_group_id + 1;
  Hashtbl.replace t.groups (Ugroup.id g) g;
  g

(* A group can accept a new member only if its tail is not open. *)
let tail_accepts g =
  match Ugroup.last g with
  | None -> true
  | Some ua -> not (Uarray.is_open ua)

(* Walk back the consumed-after chain from [pred]: append after the first
   predecessor that is produced and sits at the end of its group. *)
let rec place_after t pred =
  match Hashtbl.find_opt t.group_of (Uarray.id pred) with
  | None -> fresh_group t (* predecessor already fully reclaimed: start anew *)
  | Some g -> (
      let at_end =
        match Ugroup.last g with
        | Some last -> Uarray.id last = Uarray.id pred
        | None -> false
      in
      match Uarray.state pred with
      | Uarray.Produced when at_end -> g
      | Uarray.Retired when at_end && tail_accepts g -> g
      | Uarray.Open | Uarray.Produced | Uarray.Retired ->
          (* Not placeable here; the paper keeps walking the chain, which we
             approximate by checking the group tail (the chain is laid out
             in group order). *)
          (match Ugroup.last g with
          | Some last when Uarray.id last <> Uarray.id pred && tail_accepts g -> g
          | Some last when Uarray.id last <> Uarray.id pred -> place_after t last
          | Some _ | None -> fresh_group t))

let choose_group t hint producer =
  match t.mode with
  | Producer_grouping -> (
      (* Ablation heuristic: same producer => same generation => same group. *)
      let key = match producer with Some p -> p | None -> -1 in
      match Hashtbl.find_opt t.producer_group key with
      | Some g when tail_accepts g -> g
      | Some _ | None ->
          let g = fresh_group t in
          Hashtbl.replace t.producer_group key g;
          g)
  | Hint_guided -> (
      match hint with
      | Consumed_in_parallel -> fresh_group t
      | Consumed_after pred -> place_after t pred
      | No_hint -> fresh_group t)

let alloc t ?(hint = No_hint) ?scope ?producer ~width ~capacity () =
  let g = choose_group t hint producer in
  let ua =
    match scope with
    | Some scope -> Uarray.create ~id:t.next_uarray_id ~pool:t.pool ~width ~capacity ~scope ()
    | None -> Uarray.create ~id:t.next_uarray_id ~pool:t.pool ~width ~capacity ()
  in
  t.next_uarray_id <- t.next_uarray_id + 1;
  Ugroup.append g ua;
  Hashtbl.replace t.group_of (Uarray.id ua) g;
  t.live_arrays <- t.live_arrays + 1;
  sample_pool t;
  ua

(* Checkpoint restore: re-materialize an array under its original id.
   Each restored array gets its own fresh group — hint-guided grouping
   reflects a production order the restored plane no longer replays —
   and the id counter only ever moves forward so post-restore allocs
   continue the original sequence. *)
let alloc_restored t ~id ?scope ~width ~capacity () =
  if id < 0 then invalid_arg "Allocator.alloc_restored: negative id";
  let g = fresh_group t in
  let ua =
    match scope with
    | Some scope -> Uarray.create ~id ~pool:t.pool ~width ~capacity ~scope ()
    | None -> Uarray.create ~id ~pool:t.pool ~width ~capacity ()
  in
  if id >= t.next_uarray_id then t.next_uarray_id <- id + 1;
  Ugroup.append g ua;
  Hashtbl.replace t.group_of (Uarray.id ua) g;
  t.live_arrays <- t.live_arrays + 1;
  sample_pool t;
  ua

let force_next_id t ~next =
  if next < t.next_uarray_id then invalid_arg "Allocator.force_next_id: would reuse ids";
  t.next_uarray_id <- next

(* Released members were all retired earlier, and [retire] already dropped
   their [group_of] entries, so only the live-array count needs updating. *)
let reclaim_group t g =
  let released = Ugroup.reclaim g in
  t.live_arrays <- t.live_arrays - released;
  if Ugroup.is_exhausted g then begin
    Vspace.release t.vspace (Ugroup.vbase g);
    Hashtbl.remove t.groups (Ugroup.id g)
  end;
  if released > 0 then begin
    (match t.observer with
    | None -> ()
    | Some (tracer, now_ns) ->
        Sbt_obs.Tracer.instant tracer ~pid:1 ~tid:0 ~cat:"umem" ~name:"ugroup-reclaim"
          ~ts_ns:(now_ns ())
          ~args:[ ("group", Sbt_obs.Tracer.Int (Ugroup.id g)); ("released", Sbt_obs.Tracer.Int released) ]
          ());
    sample_pool t
  end

let retire t ua =
  Uarray.retire ua;
  match Hashtbl.find_opt t.group_of (Uarray.id ua) with
  | None -> invalid_arg "Allocator.retire: unknown uArray"
  | Some g ->
      Hashtbl.remove t.group_of (Uarray.id ua);
      reclaim_group t g

let produce t ua =
  Uarray.produce ua;
  match Hashtbl.find_opt t.group_of (Uarray.id ua) with
  | None -> invalid_arg "Allocator.produce: unknown uArray"
  | Some g -> reclaim_group t g

let live_groups t = Hashtbl.length t.groups
let live_uarrays t = t.live_arrays
let committed_bytes t = Page_pool.committed_bytes t.pool

let pinned_bytes t = Hashtbl.fold (fun _ g acc -> acc + Ugroup.pinned_bytes g) t.groups 0

let next_uarray_id t = t.next_uarray_id

let reserve_id t =
  let id = t.next_uarray_id in
  t.next_uarray_id <- id + 1;
  id
