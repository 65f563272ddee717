type t = {
  budget_pages : int;
  mutable committed : int;
  mutable high_water : int;
  lock : Mutex.t;
      (* Taken only on the shard refill/return paths.  The single-threaded
         data-plane paths never contend: recording and parallel execution
         are sequential phases, and shards are the only multi-domain
         clients of the pool. *)
}

exception Out_of_secure_memory of { requested_pages : int; available_pages : int }

let page_size = 4096
let pages_for_bytes n = (n + page_size - 1) / page_size

let create ~budget_bytes =
  if budget_bytes <= 0 then invalid_arg "Page_pool.create: budget must be positive";
  {
    budget_pages = pages_for_bytes budget_bytes;
    committed = 0;
    high_water = 0;
    lock = Mutex.create ();
  }

let available_pages t = t.budget_pages - t.committed

let commit t ~pages =
  if pages < 0 then invalid_arg "Page_pool.commit: negative pages";
  if t.committed + pages > t.budget_pages then
    raise (Out_of_secure_memory { requested_pages = pages; available_pages = available_pages t });
  t.committed <- t.committed + pages;
  if t.committed > t.high_water then t.high_water <- t.committed

let release t ~pages =
  if pages < 0 || pages > t.committed then invalid_arg "Page_pool.release: bad page count";
  t.committed <- t.committed - pages

let committed_pages t = t.committed
let committed_bytes t = t.committed * page_size
let budget_bytes t = t.budget_pages * page_size
let high_water_bytes t = t.high_water * page_size
let reset_high_water t = t.high_water <- t.committed

(* --- per-domain shards ---------------------------------------------------

   A shard is a domain-local view of the parent pool: the owning domain
   commits and releases against shard-local counters without taking any
   lock, and the shard draws page quota from the parent in chunks (under
   the parent lock) only when its local quota runs dry.

   The chunk size adapts: it starts at [base_refill] and doubles on every
   dry run (capped at [max_refill_factor] times the base), so a shard
   under sustained allocation pressure amortizes the parent lock over
   ever-larger grants instead of paying one lock trip per fixed chunk.
   Both drain paths return slack eagerly: [shard_release] caps idle quota
   against the *current* chunk size, and [merge_shard] (window close)
   returns all quota and decays the chunk back to [base_refill].

   Quota held by a shard is counted as committed in the parent, so the
   parent's committed/high-water accounting — the source of truth behind
   Figures 7 and 10 — stays a conservative bound on real usage; the slack
   is bounded by twice the current chunk size per shard and is returned
   in full at every [merge_shard]. *)

type shard = {
  parent : t;
  base_refill : int;
  mutable refill : int;  (* current (adaptive) refill chunk *)
  mutable quota : int;  (* parent pages granted but not locally committed *)
  mutable s_committed : int;
  mutable s_high_water : int;
  mutable s_refills : int;  (* dry runs that took the parent lock *)
  mutable s_drains : int;  (* slack-return trips to the parent *)
}

let max_refill_factor = 8

let default_refill_pages = 16

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let shards ?(refill_pages = default_refill_pages) t ~n =
  if n <= 0 then invalid_arg "Page_pool.shards: n must be positive";
  if refill_pages <= 0 then invalid_arg "Page_pool.shards: refill_pages must be positive";
  Array.init n (fun _ ->
      {
        parent = t;
        base_refill = refill_pages;
        refill = refill_pages;
        quota = 0;
        s_committed = 0;
        s_high_water = 0;
        s_refills = 0;
        s_drains = 0;
      })

let shard_commit s ~pages =
  if pages < 0 then invalid_arg "Page_pool.shard_commit: negative pages";
  if s.quota < pages then begin
    let need = pages - s.quota in
    let want = max need s.refill in
    locked s.parent (fun () ->
        let take = min want (available_pages s.parent) in
        if take < need then
          raise
            (Out_of_secure_memory
               { requested_pages = need; available_pages = available_pages s.parent });
        commit s.parent ~pages:take;
        s.quota <- s.quota + take);
    s.s_refills <- s.s_refills + 1;
    (* Repeated dry runs mean the chunk is too small for this phase's
       allocation rate: double it (bounded) so lock trips amortize. *)
    s.refill <- min (2 * s.refill) (max_refill_factor * s.base_refill)
  end;
  s.quota <- s.quota - pages;
  s.s_committed <- s.s_committed + pages;
  if s.s_committed > s.s_high_water then s.s_high_water <- s.s_committed

let shard_release s ~pages =
  if pages < 0 || pages > s.s_committed then
    invalid_arg "Page_pool.shard_release: bad page count";
  s.s_committed <- s.s_committed - pages;
  s.quota <- s.quota + pages;
  (* Cap the idle quota a shard sits on so one domain cannot starve the
     others between merges.  The cap tracks the adaptive chunk size, so a
     shard that just finished a hot phase sheds its extra slack as soon
     as frees outpace allocations. *)
  if s.quota > 2 * s.refill then begin
    let spare = s.quota - s.refill in
    locked s.parent (fun () -> release s.parent ~pages:spare);
    s.quota <- s.quota - spare;
    s.s_drains <- s.s_drains + 1
  end

let merge_shard s =
  (* Window close: return every unused quota page to the parent so its
     committed count drops back to real (shard-committed) usage, and
     decay the refill chunk back to its base — the next window re-earns
     any growth.  Only the owning domain may call this — shard counters
     are unlocked. *)
  if s.quota > 0 then begin
    let spare = s.quota in
    locked s.parent (fun () -> release s.parent ~pages:spare);
    s.quota <- 0;
    s.s_drains <- s.s_drains + 1
  end;
  s.refill <- s.base_refill

let shard_committed_bytes s = s.s_committed * page_size
let shard_high_water_bytes s = s.s_high_water * page_size
let shard_refill_pages s = s.refill
let shard_refills s = s.s_refills
let shard_drains s = s.s_drains
