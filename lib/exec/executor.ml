module Trace = Sbt_sim.Trace
module Clock = Sbt_sim.Clock
module Pool = Sbt_umem.Page_pool
module PK = Sbt_prim.Par_kernel

type mode = [ `Paced | `Spin | `Work ]

type work_fn = PK.runner -> unit

type domain_stats = {
  tasks : int;
  steals : int;
  steal_attempts : int;
  parks : int;
  chunks : int;
  busy_ns : float;
}

type report = {
  domains : int;
  wall_ns : float;
  tasks_executed : int;
  chunks_executed : int;
  per_domain : domain_stats array;
  pool_merges : int;
  scratch_high_water_bytes : int;
  journal : string;
}

let total_steals r = Array.fold_left (fun a s -> a + s.steals) 0 r.per_domain
let total_parks r = Array.fold_left (fun a s -> a + s.parks) 0 r.per_domain

(* --- the task kernel ------------------------------------------------------

   One chunk = 64 rounds of an integer mix written through the domain's
   scratch buffer: real loads/stores and real ALU work, deterministic,
   allocation-free.  [`Spin] runs a calibrated number of chunks; [`Paced]
   runs chunks until a wall deadline (with a coarse sleep first, so paced
   tasks overlap on oversubscribed hosts instead of fighting for the
   core). *)

let chunk_rounds = 64

let spin_chunk scratch h0 =
  let len = Bytes.length scratch in
  let h = ref h0 in
  for _ = 1 to chunk_rounds do
    h := (!h * 0x9E3779B97F4A7C) + 0x165667B19E3779F9;
    h := !h lxor (!h lsr 29);
    let off = (!h land max_int) mod (len - 8) in
    let prev = Bytes.get_uint8 scratch off in
    Bytes.unsafe_set scratch off (Char.unsafe_chr ((prev + (!h land 0x7F)) land 0xFF))
  done;
  !h

(* Chunks per nanosecond, measured once on the calling domain before any
   worker spawns (so the lazy cell is never forced concurrently). *)
let chunks_per_ns =
  lazy
    (let scratch = Bytes.create 4096 in
     let warm = ref 1 in
     for _ = 1 to 1_000 do
       warm := spin_chunk scratch !warm
     done;
     let t0 = Clock.now_ns () in
     let n = 20_000 in
     let h = ref !warm in
     for _ = 1 to n do
       h := spin_chunk scratch !h
     done;
     let dt = Float.max 1.0 (Clock.elapsed_ns ~since:t0) in
     ignore (Sys.opaque_identity !h);
     float_of_int n /. dt)

(* Sleep resolution is tens of microseconds at best: sleep short of the
   deadline and close the gap with the spin loop.  The margin must stay
   small — spinning burns a real core, and on an oversubscribed host a
   fat spin tail serializes the domains and erases the very overlap
   [`Paced] exists to show. *)
let sleep_margin_ns = 30_000.

let run_kernel ~(mode : [ `Paced | `Spin ]) ~scratch ~target_ns =
  if target_ns > 0.0 then
    match mode with
    | `Spin ->
        let chunks =
          int_of_float (Float.min 1e9 (target_ns *. Lazy.force chunks_per_ns))
        in
        let h = ref 1 in
        for _ = 1 to chunks do
          h := spin_chunk scratch !h
        done;
        ignore (Sys.opaque_identity !h)
    | `Paced ->
        let deadline = Clock.now_ns () +. target_ns in
        if target_ns > sleep_margin_ns then
          Unix.sleepf ((target_ns -. sleep_margin_ns) /. 1e9);
        let h = ref 1 in
        while Clock.now_ns () < deadline do
          h := spin_chunk scratch !h
        done;
        ignore (Sys.opaque_identity !h)

(* --- per-domain mutable state --------------------------------------------- *)

type worker = {
  id : int;
  deque : int Deque.t;
  shard : Pool.shard;
  scratch : Bytes.t;
  mutable w_tasks : int;
  mutable w_steals : int;
  mutable w_steal_attempts : int;
  mutable w_parks : int;
  mutable w_chunks : int;
  mutable w_busy : float;
  (* Buffered observability: spans and journal entries are collected
     domain-locally and merged after the join, so recording never makes
     one domain wait on another. *)
  mutable spans : (int * string * float * float) list; (* (node, label, start, dur) *)
}

(* A [`Work] task's parallel kernel publishes its chunk array here; idle
   workers claim chunks through [next] and bump [completed] per finished
   chunk, so the owner can wait for stragglers without a lock. *)
type batch = { b_chunks : PK.chunk array; b_next : int Atomic.t; b_completed : int Atomic.t }

let run ?tracer ?registry ?pool ?(time_scale = 1.0) ?(mode : mode = `Paced)
    ?(scratch_pages = 8) ?work ~domains trace =
  if domains <= 0 then invalid_arg "Executor.run: domains must be positive";
  if time_scale < 0.0 then invalid_arg "Executor.run: negative time_scale";
  if scratch_pages <= 0 then invalid_arg "Executor.run: scratch_pages must be positive";
  let nodes = Trace.nodes trace in
  let n = Array.length nodes in
  let pool =
    match pool with Some p -> p | None -> Pool.create ~budget_bytes:(64 * 1024 * 1024)
  in
  let shards = Pool.shards pool ~n:domains in
  (* Dependency countdowns and inverted edges, straight from the trace. *)
  let deps_left = Array.init n (fun i -> Atomic.make (List.length nodes.(i).Trace.deps)) in
  let children = Array.make n [] in
  Array.iteri
    (fun i node -> List.iter (fun d -> children.(d) <- i :: children.(d)) node.Trace.deps)
    nodes;
  for i = 0 to n - 1 do
    children.(i) <- List.rev children.(i)
  done;
  let remaining = Atomic.make n in
  let pool_merges = Atomic.make 0 in
  (match mode with `Spin -> ignore (Lazy.force chunks_per_ns) | `Paced | `Work -> ());
  let workers =
    Array.init domains (fun id ->
        {
          id;
          deque = Deque.create ();
          shard = shards.(id);
          scratch = Bytes.create (scratch_pages * Pool.page_size);
          w_tasks = 0;
          w_steals = 0;
          w_steal_attempts = 0;
          w_parks = 0;
          w_chunks = 0;
          w_busy = 0.0;
          spans = [];
        })
  in
  (* --- intra-task chunk parallelism (`Work` mode) ---------------------- *)
  let slots : batch option Atomic.t array = Array.init domains (fun _ -> Atomic.make None) in
  let run_chunk w (c : PK.chunk) =
    let pages = Pool.pages_for_bytes (max 0 c.PK.scratch_bytes) in
    if pages > 0 then begin
      Pool.shard_commit w.shard ~pages;
      Fun.protect ~finally:(fun () -> Pool.shard_release w.shard ~pages) c.PK.run
    end
    else c.PK.run ();
    w.w_chunks <- w.w_chunks + 1
  in
  let help_batch w (b : batch) =
    let m = Array.length b.b_chunks in
    let rec loop () =
      let i = Atomic.fetch_and_add b.b_next 1 in
      if i < m then begin
        run_chunk w b.b_chunks.(i);
        Atomic.incr b.b_completed;
        loop ()
      end
    in
    loop ()
  in
  (* Idle path: before parking, look for a published batch with unclaimed
     chunks and help drain it. *)
  let try_help w =
    let rec probe k =
      if k >= domains then false
      else
        match Atomic.get slots.((w.id + k) mod domains) with
        | Some b when Atomic.get b.b_next < Array.length b.b_chunks ->
            help_batch w b;
            true
        | _ -> probe (k + 1)
    in
    probe 1
  in
  (* The runner a [`Work] task body sees: chunks are published in this
     worker's slot, claimed by whoever is idle, and the owner both works
     and waits for the last claimed chunk to finish (spin — chunk bodies
     are compute, not I/O). *)
  let runner_for w : PK.runner =
    let run_chunks chunks =
      let m = Array.length chunks in
      if m = 0 then ()
      else if m = 1 || domains = 1 then Array.iter (run_chunk w) chunks
      else begin
        let b = { b_chunks = chunks; b_next = Atomic.make 0; b_completed = Atomic.make 0 } in
        Atomic.set slots.(w.id) (Some b);
        help_batch w b;
        while Atomic.get b.b_completed < m do
          Domain.cpu_relax ()
        done;
        Atomic.set slots.(w.id) None
      end
    in
    { PK.width = domains; run_chunks }
  in
  (* Seed the roots round-robin so even the initial frontier is spread. *)
  let seeded = ref 0 in
  for i = 0 to n - 1 do
    if Atomic.get deps_left.(i) = 0 then begin
      Deque.push workers.(!seeded mod domains).deque i;
      incr seeded
    end
  done;
  let t_start = Clock.now_ns () in
  let execute w i =
    let node = nodes.(i) in
    let t0 = Clock.now_ns () in
    (match mode with
    | `Work ->
        (* Real work: replay this node's captured kernels through the
           chunk pool.  Nodes without captured kernels (pacing, control
           bookkeeping) cost nothing here.  Chunk scratch is accounted on
           the executing worker's shard inside [run_chunk]. *)
        let fn = match work with None -> None | Some lookup -> lookup i in
        Option.iter (fun f -> f (runner_for w)) fn
    | (`Paced | `Spin) as m ->
        Pool.shard_commit w.shard ~pages:scratch_pages;
        Fun.protect
          ~finally:(fun () -> Pool.shard_release w.shard ~pages:scratch_pages)
          (fun () ->
            run_kernel ~mode:m ~scratch:w.scratch ~target_ns:(node.Trace.cost_ns *. time_scale)));
    (* Window close: fold this domain's scratch shard back into the
       parent pool so its accounting drops to real usage. *)
    (match node.Trace.role with
    | Trace.Egress_of _ ->
        Pool.merge_shard w.shard;
        Atomic.incr pool_merges
    | Trace.Plain | Trace.Watermark_arrival _ -> ());
    let t1 = Clock.now_ns () in
    w.w_busy <- w.w_busy +. (t1 -. t0);
    w.w_tasks <- w.w_tasks + 1;
    w.spans <- (i, node.Trace.label, t0 -. t_start, t1 -. t0) :: w.spans;
    List.iter
      (fun c ->
        if Atomic.fetch_and_add deps_left.(c) (-1) = 1 then Deque.push w.deque c)
      children.(i);
    Atomic.decr remaining
  in
  let try_steal w =
    let rec probe k =
      if k >= domains then None
      else begin
        let victim = workers.((w.id + k) mod domains) in
        w.w_steal_attempts <- w.w_steal_attempts + 1;
        match Deque.steal_half victim.deque with
        | [] -> probe (k + 1)
        | first :: rest ->
            w.w_steals <- w.w_steals + 1;
            (* Keep the oldest task; queue the rest so LIFO pops replay
               them oldest-first. *)
            List.iter (Deque.push w.deque) (List.rev rest);
            Some first
      end
    in
    probe 1
  in
  let worker_loop w =
    let backoff = ref 20e-6 in
    let rec loop () =
      if Atomic.get remaining > 0 then begin
        (match Deque.pop w.deque with
        | Some i ->
            backoff := 20e-6;
            execute w i
        | None -> (
            match try_steal w with
            | Some i ->
                backoff := 20e-6;
                execute w i
            | None ->
                if try_help w then backoff := 20e-6
                else begin
                  (* Nothing runnable anywhere: dependencies are still in
                     flight on other domains.  Back off (bounded) and
                     re-probe. *)
                  w.w_parks <- w.w_parks + 1;
                  Unix.sleepf !backoff;
                  backoff := Float.min 1e-3 (!backoff *. 2.0)
                end));
        loop ()
      end
    in
    loop ()
  in
  let spawned =
    Array.init (domains - 1) (fun k -> Domain.spawn (fun () -> worker_loop workers.(k + 1)))
  in
  worker_loop workers.(0);
  Array.iter Domain.join spawned;
  let wall_ns = Clock.elapsed_ns ~since:t_start in
  Array.iter (fun s -> Pool.merge_shard s) shards;
  let executed = Array.fold_left (fun a w -> a + w.w_tasks) 0 workers in
  if executed <> n then
    invalid_arg
      (Printf.sprintf "Executor.run: %d task(s) never became ready (dependency cycle?)"
         (n - executed));
  (* Canonical journal: every domain's completions, merged in schedule
     order — byte-identical however the domains interleaved. *)
  let completions =
    Array.to_list workers
    |> List.concat_map (fun w -> List.rev_map (fun (i, l, s, d) -> (i, l, s, d, w.id)) w.spans)
    |> List.sort (fun (a, _, _, _, _) (b, _, _, _, _) -> compare a b)
  in
  let journal = Buffer.create (16 * n) in
  List.iter (fun (i, label, _, _, _) -> Buffer.add_string journal (Printf.sprintf "%d %s\n" i label)) completions;
  (match tracer with
  | None -> ()
  | Some tr ->
      List.iter
        (fun (_, label, start, dur, dom) ->
          Sbt_obs.Tracer.complete tr ~pid:2 ~tid:dom ~cat:"exec" ~name:label ~ts_ns:start
            ~dur_ns:dur ())
        completions);
  let per_domain =
    Array.map
      (fun w ->
        {
          tasks = w.w_tasks;
          steals = w.w_steals;
          steal_attempts = w.w_steal_attempts;
          parks = w.w_parks;
          chunks = w.w_chunks;
          busy_ns = w.w_busy;
        })
      workers
  in
  let scratch_hw =
    Array.fold_left (fun a s -> a + Pool.shard_high_water_bytes s) 0 shards
  in
  let report =
    {
      domains;
      wall_ns;
      tasks_executed = executed;
      chunks_executed = Array.fold_left (fun a w -> a + w.w_chunks) 0 workers;
      per_domain;
      pool_merges = Atomic.get pool_merges;
      scratch_high_water_bytes = scratch_hw;
      journal = Buffer.contents journal;
    }
  in
  (match registry with
  | None -> ()
  | Some reg ->
      let open Sbt_obs.Metrics in
      add (counter reg "exec.tasks") executed;
      add (counter reg "exec.steals") (total_steals report);
      add (counter reg "exec.steal_attempts")
        (Array.fold_left (fun a s -> a + s.steal_attempts) 0 per_domain);
      add (counter reg "exec.parks") (total_parks report);
      add (counter reg "exec.chunks") report.chunks_executed;
      add (counter reg "exec.pool_merges") report.pool_merges;
      add (counter reg "exec.domains") domains;
      add (counter reg "exec.wall_ns") (int_of_float (Float.max 0.0 wall_ns));
      add (counter reg "umem.shard.refills")
        (Array.fold_left (fun a s -> a + Pool.shard_refills s) 0 shards);
      add (counter reg "umem.shard.drains")
        (Array.fold_left (fun a s -> a + Pool.shard_drains s) 0 shards));
  report
