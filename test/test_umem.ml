(* Tests for the TEE memory manager: the secure page pool, the virtual
   address space, uArray lifecycle, uGroup prefix reclamation, and the
   hint-guided allocator and its ablation mode. *)

module Pool = Sbt_umem.Page_pool
module Vspace = Sbt_umem.Vspace
module U = Sbt_umem.Uarray
module G = Sbt_umem.Ugroup
module A = Sbt_umem.Allocator

let mb = 1024 * 1024

(* --- page pool ----------------------------------------------------------- *)

let test_pool_commit_release () =
  let p = Pool.create ~budget_bytes:(1 * mb) in
  Alcotest.(check int) "empty" 0 (Pool.committed_pages p);
  Pool.commit p ~pages:10;
  Alcotest.(check int) "committed" 10 (Pool.committed_pages p);
  Alcotest.(check int) "bytes" (10 * 4096) (Pool.committed_bytes p);
  Pool.release p ~pages:4;
  Alcotest.(check int) "released" 6 (Pool.committed_pages p);
  Alcotest.(check int) "high water sticks" (10 * 4096) (Pool.high_water_bytes p);
  Pool.reset_high_water p;
  Alcotest.(check int) "high water reset" (6 * 4096) (Pool.high_water_bytes p)

let test_pool_budget_enforced () =
  let p = Pool.create ~budget_bytes:(2 * 4096) in
  Pool.commit p ~pages:2;
  (try
     Pool.commit p ~pages:1;
     Alcotest.fail "exceeded budget"
   with Pool.Out_of_secure_memory { requested_pages = 1; available_pages = 0 } -> ())

let test_pool_release_too_much () =
  let p = Pool.create ~budget_bytes:(10 * 4096) in
  Pool.commit p ~pages:2;
  Alcotest.check_raises "over-release" (Invalid_argument "Page_pool.release: bad page count")
    (fun () -> Pool.release p ~pages:3)

let test_pages_for_bytes () =
  Alcotest.(check int) "0" 0 (Pool.pages_for_bytes 0);
  Alcotest.(check int) "1" 1 (Pool.pages_for_bytes 1);
  Alcotest.(check int) "4096" 1 (Pool.pages_for_bytes 4096);
  Alcotest.(check int) "4097" 2 (Pool.pages_for_bytes 4097)

(* --- vspace --------------------------------------------------------------- *)

let test_vspace_reserve_far_apart () =
  let v = Vspace.create ~stride_bytes:(512 * mb) () in
  let a = Vspace.reserve v in
  let b = Vspace.reserve v in
  Alcotest.(check bool) "distinct ranges" true (Int64.sub b a = Int64.of_int (512 * mb));
  Alcotest.(check int) "two live" 2 (Vspace.reserved_ranges v);
  Vspace.release v a;
  Alcotest.(check int) "one live" 1 (Vspace.reserved_ranges v);
  (* Freed range is recycled. *)
  let c = Vspace.reserve v in
  Alcotest.(check bool) "reuses freed base" true (Int64.equal a c)

let test_vspace_utilization_low () =
  (* The paper reports 1-5% of the 256TB space in use; even a thousand
     512MB ranges stay well below 1%. *)
  let v = Vspace.create ~stride_bytes:(512 * mb) () in
  for _ = 1 to 1000 do
    ignore (Vspace.reserve v)
  done;
  Alcotest.(check bool) "under 1%" true (Vspace.utilization v < 0.01)

let test_vspace_exhaustion () =
  let v = Vspace.create ~total_bytes:(Int64.of_int (2 * mb)) ~stride_bytes:mb () in
  ignore (Vspace.reserve v);
  ignore (Vspace.reserve v);
  Alcotest.check_raises "exhausted" Vspace.Virtual_space_exhausted (fun () ->
      ignore (Vspace.reserve v))

(* --- uArray ---------------------------------------------------------------- *)

let pool () = Pool.create ~budget_bytes:(64 * mb)

let test_uarray_lifecycle () =
  let p = pool () in
  let ua = U.create ~id:1 ~pool:p ~width:3 ~capacity:100 () in
  Alcotest.(check int) "no pages before data" 0 (U.committed_pages ua);
  U.append_fields3 ua 1l 2l 3l;
  U.append ua [| 4l; 5l; 6l |];
  Alcotest.(check int) "length" 2 (U.length ua);
  Alcotest.(check int32) "field" 5l (U.get_field ua 1 1);
  Alcotest.(check bool) "open" true (U.is_open ua);
  U.produce ua;
  Alcotest.(check bool) "produced" true (U.state ua = U.Produced);
  (try
     U.append_fields3 ua 7l 8l 9l;
     Alcotest.fail "appended to sealed array"
   with U.Sealed { id = 1 } -> ());
  U.retire ua;
  Alcotest.(check bool) "retired" true (U.state ua = U.Retired);
  U.release_pages ua;
  Alcotest.(check int) "pool drained" 0 (Pool.committed_pages p)

let test_uarray_capacity_enforced () =
  let p = pool () in
  let ua = U.create ~id:2 ~pool:p ~width:1 ~capacity:2 () in
  U.append ua [| 1l |];
  U.append ua [| 2l |];
  (try
     U.append ua [| 3l |];
     Alcotest.fail "grew past capacity"
   with U.Full { id = 2; capacity = 2 } -> ())

let test_uarray_grows_in_place () =
  (* The defining uArray property: the backing buffer never relocates. *)
  let p = pool () in
  let ua = U.create ~id:3 ~pool:p ~width:1 ~capacity:100_000 () in
  let buf_before = U.raw ua in
  for i = 0 to 99_999 do
    U.append ua [| Int32.of_int i |]
  done;
  Alcotest.(check bool) "same buffer" true (buf_before == U.raw ua);
  Alcotest.(check int32) "data intact" 99_999l (U.get_field ua 99_999 0)

let test_uarray_pages_track_growth () =
  let p = pool () in
  let ua = U.create ~id:4 ~pool:p ~width:1 ~capacity:10_000 () in
  ignore (U.reserve ua 1024);
  (* 1024 int32 = 4096 bytes = 1 page *)
  Alcotest.(check int) "one page" 1 (U.committed_pages ua);
  ignore (U.reserve ua 1);
  Alcotest.(check int) "second page on crossing" 2 (U.committed_pages ua)

let test_uarray_blit () =
  let p = pool () in
  let src = U.create ~id:5 ~pool:p ~width:2 ~capacity:10 () in
  for i = 0 to 9 do
    U.append src [| Int32.of_int i; Int32.of_int (i * i) |]
  done;
  U.produce src;
  let dst = U.create ~id:6 ~pool:p ~width:2 ~capacity:5 () in
  U.append_blit dst ~src ~src_pos:2 ~len:5;
  Alcotest.(check int) "blit length" 5 (U.length dst);
  Alcotest.(check int32) "blit content" 16l (U.get_field dst 2 1)

let test_uarray_bounds_checks () =
  let p = pool () in
  let ua = U.create ~id:7 ~pool:p ~width:2 ~capacity:4 () in
  U.append ua [| 1l; 2l |];
  Alcotest.check_raises "record oob" (Invalid_argument "Uarray.get_field: out of bounds")
    (fun () -> ignore (U.get_field ua 1 0));
  Alcotest.check_raises "field oob" (Invalid_argument "Uarray.get_field: out of bounds")
    (fun () -> ignore (U.get_field ua 0 2));
  Alcotest.check_raises "wrong width" (Invalid_argument "Uarray.append: wrong field count")
    (fun () -> U.append ua [| 1l |])

let test_uarray_scopes () =
  let p = pool () in
  let ua = U.create ~id:8 ~pool:p ~width:1 ~capacity:1 ~scope:U.State () in
  Alcotest.(check bool) "state scope" true (U.scope ua = U.State)

(* --- uGroup ----------------------------------------------------------------- *)

let mk_ua p id =
  let ua = U.create ~id ~pool:p ~width:1 ~capacity:2048 () in
  ignore (U.reserve ua 1024);
  (* one page *)
  ua

let test_ugroup_prefix_reclamation () =
  let p = pool () in
  let g = G.create ~id:0 ~vbase:0L in
  let a = mk_ua p 1 and b = mk_ua p 2 and c = mk_ua p 3 in
  U.produce a;
  G.append g a;
  U.produce b;
  G.append g b;
  U.produce c;
  G.append g c;
  Alcotest.(check int) "three members" 3 (G.member_count g);
  (* Retire the middle one: nothing can be reclaimed yet, and b's page is
     pinned behind the still-live head a. *)
  U.retire b;
  Alcotest.(check int) "blocked by head" 0 (G.reclaim g);
  Alcotest.(check int) "b's page pinned behind live a" 4096 (G.pinned_bytes g);
  (* Retire the head: both a and b are reclaimed; c still live. *)
  U.retire a;
  Alcotest.(check int) "front two reclaimed" 2 (G.reclaim g);
  Alcotest.(check int) "one live member" 1 (G.live_member_count g);
  Alcotest.(check bool) "not exhausted" false (G.is_exhausted g);
  U.retire c;
  Alcotest.(check int) "last reclaimed" 1 (G.reclaim g);
  Alcotest.(check bool) "exhausted" true (G.is_exhausted g);
  Alcotest.(check int) "pool empty" 0 (Pool.committed_pages p)

let test_ugroup_pinned_bytes () =
  let p = pool () in
  let g = G.create ~id:0 ~vbase:0L in
  let a = mk_ua p 1 and b = mk_ua p 2 in
  U.produce a;
  G.append g a;
  U.produce b;
  G.append g b;
  (* b retired behind a live straggler a: its page is pinned. *)
  U.retire b;
  Alcotest.(check int) "one page pinned" 4096 (G.pinned_bytes g)

let test_ugroup_open_tail_rule () =
  let p = pool () in
  let g = G.create ~id:0 ~vbase:0L in
  let a = mk_ua p 1 in
  G.append g a;
  (* a is still open: nothing may be placed after it. *)
  let b = mk_ua p 2 in
  U.produce b;
  Alcotest.check_raises "open tail" (Invalid_argument "Ugroup.append: group tail is still open")
    (fun () -> G.append g b)

(* --- allocator ---------------------------------------------------------------- *)

let test_allocator_consumed_after_shares_group () =
  let p = pool () in
  let a = A.create ~pool:p () in
  let first = A.alloc a ~width:1 ~capacity:16 () in
  A.produce a first;
  let second = A.alloc a ~hint:(A.Consumed_after first) ~width:1 ~capacity:16 () in
  A.produce a second;
  (* Both in one group: one group live. *)
  Alcotest.(check int) "one group" 1 (A.live_groups a);
  ignore second

let test_allocator_parallel_separates_groups () =
  let p = pool () in
  let a = A.create ~pool:p () in
  let xs =
    List.init 4 (fun _ ->
        let ua = A.alloc a ~hint:A.Consumed_in_parallel ~width:1 ~capacity:16 () in
        A.produce a ua;
        ua)
  in
  Alcotest.(check int) "four groups" 4 (A.live_groups a);
  List.iter (fun ua -> A.retire a ua) xs;
  Alcotest.(check int) "all reclaimed" 0 (A.live_uarrays a)

let test_allocator_chain_reclaims_in_order () =
  let p = pool () in
  let a = A.create ~pool:p () in
  let mk ?hint () =
    let ua = A.alloc a ?hint ~width:1 ~capacity:2048 () in
    ignore (U.reserve ua 1024);
    A.produce a ua;
    ua
  in
  let x = mk () in
  let y = mk ~hint:(A.Consumed_after x) () in
  let z = mk ~hint:(A.Consumed_after y) () in
  Alcotest.(check int) "one group" 1 (A.live_groups a);
  Alcotest.(check int) "three pages" 3 (Pool.committed_pages p);
  (* Consuming in hint order reclaims promptly. *)
  A.retire a x;
  Alcotest.(check int) "x reclaimed" 2 (Pool.committed_pages p);
  A.retire a y;
  A.retire a z;
  Alcotest.(check int) "drained" 0 (Pool.committed_pages p);
  Alcotest.(check int) "no groups" 0 (A.live_groups a)

let test_allocator_out_of_order_pins_memory () =
  let p = pool () in
  let a = A.create ~pool:p () in
  let mk ?hint () =
    let ua = A.alloc a ?hint ~width:1 ~capacity:2048 () in
    ignore (U.reserve ua 1024);
    A.produce a ua;
    ua
  in
  let x = mk () in
  let y = mk ~hint:(A.Consumed_after x) () in
  (* Misleading hint in effect: y is consumed first.  Memory stays pinned
     (no loss, no corruption - just retention), exactly the paper's
     "misleading hints never violate safety" property. *)
  A.retire a y;
  Alcotest.(check int) "y's page pinned behind x" 2 (Pool.committed_pages p);
  Alcotest.(check bool) "pinned bytes visible" true (A.pinned_bytes a > 0);
  A.retire a x;
  Alcotest.(check int) "drained after x" 0 (Pool.committed_pages p)

let test_allocator_producer_grouping_mode () =
  let p = pool () in
  let a = A.create ~mode:A.Producer_grouping ~pool:p () in
  let mk producer =
    let ua = A.alloc a ~producer ~width:1 ~capacity:16 () in
    A.produce a ua;
    ua
  in
  let _x1 = mk 1 in
  let _x2 = mk 1 in
  let _y = mk 2 in
  (* Same producer shares a group; different producer gets its own. *)
  Alcotest.(check int) "two groups" 2 (A.live_groups a)

let test_allocator_ids_monotonic () =
  let p = pool () in
  let a = A.create ~pool:p () in
  let x = A.alloc a ~width:1 ~capacity:1 () in
  let y = A.alloc a ~width:1 ~capacity:1 () in
  Alcotest.(check bool) "monotonic ids" true (U.id y = U.id x + 1);
  Alcotest.(check int) "next id" (U.id y + 1) (A.next_uarray_id a)

(* Property: random alloc/produce/retire sequences never lose pool pages:
   after retiring everything, the pool is empty. *)
let prop_allocator_conservation =
  QCheck.Test.make ~name:"allocator conserves pages" ~count:50
    QCheck.(list (pair (int_bound 2) (int_bound 3)))
    (fun ops ->
      let p = Pool.create ~budget_bytes:(64 * mb) in
      let a = A.create ~pool:p () in
      let live = ref [] in
      List.iter
        (fun (kind, links) ->
          match kind with
          | 0 | 1 ->
              let hint =
                match (kind, !live) with
                | 1, prev :: _ -> A.Consumed_after prev
                | _, _ -> if links = 0 then A.Consumed_in_parallel else A.No_hint
              in
              let ua = A.alloc a ~hint ~width:1 ~capacity:2048 () in
              ignore (U.reserve ua (256 * (links + 1)));
              A.produce a ua;
              live := ua :: !live
          | _ -> (
              match !live with
              | [] -> ()
              | ua :: rest ->
                  A.retire a ua;
                  live := rest))
        ops;
      List.iter (fun ua -> A.retire a ua) !live;
      Pool.committed_pages p = 0 && A.live_uarrays a = 0)

(* A list-based reference model of the allocator's group bookkeeping.
   Groups are member lists in placement order, kept in a plain list and
   placed by the allocator's documented rules: parallel and unhinted
   arrays open a group, a consumed-after array walks its predecessor's
   group tail, and the producer-grouping ablation reuses a producer's
   group while its tail is sealed.  A group leaves the live list once
   reclamation has released every member. *)
type mgroup = { mutable members : U.t list; mutable front : int }

type model = {
  mutable live : mgroup list;
  mutable group_of : (int * mgroup) list; (* uarray id -> group, until retired *)
  mutable by_producer : (int * mgroup) list;
}

let m_last g = match List.rev g.members with [] -> None | ua :: _ -> Some ua
let m_tail_accepts g = match m_last g with None -> true | Some ua -> not (U.is_open ua)

let m_fresh m =
  let g = { members = []; front = 0 } in
  m.live <- g :: m.live;
  g

let rec m_place_after m pred =
  match List.assoc_opt (U.id pred) m.group_of with
  | None -> m_fresh m
  | Some g -> (
      match m_last g with
      | Some last when U.id last = U.id pred && U.state pred = U.Produced -> g
      | Some last when U.id last <> U.id pred && m_tail_accepts g -> g
      | Some last when U.id last <> U.id pred -> m_place_after m last
      | Some _ | None -> m_fresh m)

let m_alloc m ~mode ~hint ~producer ua =
  let g =
    match (mode, hint) with
    | A.Producer_grouping, _ -> (
        match List.assoc_opt producer m.by_producer with
        | Some g when m_tail_accepts g -> g
        | Some _ | None ->
            let g = m_fresh m in
            m.by_producer <- (producer, g) :: List.remove_assoc producer m.by_producer;
            g)
    | A.Hint_guided, A.Consumed_after pred -> m_place_after m pred
    | A.Hint_guided, (A.No_hint | A.Consumed_in_parallel) -> m_fresh m
  in
  g.members <- g.members @ [ ua ];
  m.group_of <- (U.id ua, g) :: m.group_of

let m_reclaim m ua =
  match List.assoc_opt (U.id ua) m.group_of with
  | None -> ()
  | Some g ->
      if U.state ua = U.Retired then m.group_of <- List.remove_assoc (U.id ua) m.group_of;
      let n = List.length g.members in
      while g.front < n && U.state (List.nth g.members g.front) = U.Retired do
        g.front <- g.front + 1
      done;
      if n > 0 && g.front = n then m.live <- List.filter (fun g' -> g' != g) m.live

let m_pinned m =
  List.fold_left
    (fun acc g ->
      let _, pinned =
        List.fold_left
          (fun (seen_live, acc) ua ->
            match U.state ua with
            | U.Open | U.Produced -> (true, acc)
            | U.Retired -> (seen_live, if seen_live then acc + U.committed_bytes ua else acc))
          (false, 0)
          (List.filteri (fun i _ -> i >= g.front) g.members)
      in
      acc + pinned)
    0 m.live

(* Property: over random alloc/produce/retire sequences with random
   (often misleading) hints, in both modes, the allocator's live-group
   count and pinned bytes equal the list model's after every step. *)
let prop_allocator_matches_list_model =
  QCheck.Test.make ~name:"allocator groups match a list model" ~count:200
    QCheck.(
      pair bool
        (list_of_size Gen.(int_range 0 80) (triple (int_bound 3) (int_bound 7) (int_bound 2))))
    (fun (producer_mode, ops) ->
      let mode = if producer_mode then A.Producer_grouping else A.Hint_guided in
      let p = Pool.create ~budget_bytes:(64 * mb) in
      let a = A.create ~mode ~pool:p () in
      let m = { live = []; group_of = []; by_producer = [] } in
      let all = ref [] in
      let pick pred k =
        match List.filter pred !all with [] -> None | l -> Some (List.nth l (k mod List.length l))
      in
      List.for_all
        (fun (kind, k, producer) ->
          (match kind with
          | 0 | 1 ->
              let hint =
                match (kind, pick (fun _ -> true) k) with
                | 1, Some pred -> A.Consumed_after pred
                | _ -> if k mod 2 = 0 then A.Consumed_in_parallel else A.No_hint
              in
              let ua = A.alloc a ~hint ~producer ~width:1 ~capacity:(1024 * (k + 1)) () in
              ignore (U.reserve ua (512 * (k + 1)));
              m_alloc m ~mode ~hint ~producer ua;
              all := !all @ [ ua ]
          | 2 ->
              Option.iter
                (fun ua ->
                  A.produce a ua;
                  m_reclaim m ua)
                (pick U.is_open k)
          | _ ->
              Option.iter
                (fun ua ->
                  A.retire a ua;
                  m_reclaim m ua)
                (pick (fun ua -> U.state ua <> U.Retired) k));
          A.live_groups a = List.length m.live && A.pinned_bytes a = m_pinned m)
        ops)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "umem"
    [
      ( "page-pool",
        [
          Alcotest.test_case "commit/release" `Quick test_pool_commit_release;
          Alcotest.test_case "budget enforced" `Quick test_pool_budget_enforced;
          Alcotest.test_case "over-release rejected" `Quick test_pool_release_too_much;
          Alcotest.test_case "pages_for_bytes" `Quick test_pages_for_bytes;
        ] );
      ( "vspace",
        [
          Alcotest.test_case "far apart + reuse" `Quick test_vspace_reserve_far_apart;
          Alcotest.test_case "utilization low" `Quick test_vspace_utilization_low;
          Alcotest.test_case "exhaustion" `Quick test_vspace_exhaustion;
        ] );
      ( "uarray",
        [
          Alcotest.test_case "lifecycle" `Quick test_uarray_lifecycle;
          Alcotest.test_case "capacity enforced" `Quick test_uarray_capacity_enforced;
          Alcotest.test_case "grows in place" `Quick test_uarray_grows_in_place;
          Alcotest.test_case "pages track growth" `Quick test_uarray_pages_track_growth;
          Alcotest.test_case "blit" `Quick test_uarray_blit;
          Alcotest.test_case "bounds checks" `Quick test_uarray_bounds_checks;
          Alcotest.test_case "scopes" `Quick test_uarray_scopes;
        ] );
      ( "ugroup",
        [
          Alcotest.test_case "prefix reclamation" `Quick test_ugroup_prefix_reclamation;
          Alcotest.test_case "pinned bytes" `Quick test_ugroup_pinned_bytes;
          Alcotest.test_case "open tail rule" `Quick test_ugroup_open_tail_rule;
        ] );
      ( "allocator",
        [
          Alcotest.test_case "consumed-after shares group" `Quick
            test_allocator_consumed_after_shares_group;
          Alcotest.test_case "parallel separates groups" `Quick
            test_allocator_parallel_separates_groups;
          Alcotest.test_case "chain reclaims in order" `Quick test_allocator_chain_reclaims_in_order;
          Alcotest.test_case "misleading hint only pins memory" `Quick
            test_allocator_out_of_order_pins_memory;
          Alcotest.test_case "producer grouping ablation" `Quick
            test_allocator_producer_grouping_mode;
          Alcotest.test_case "monotonic ids" `Quick test_allocator_ids_monotonic;
          q prop_allocator_conservation;
          q prop_allocator_matches_list_model;
        ] );
    ]
