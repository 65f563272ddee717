(* A task's virtual times, in an all-float record so that setting one
   stores it in place. *)
type times = {
  mutable ready : float; (* max of not_before and finished deps *)
  mutable start : float;
  mutable finish : float;
  mutable cost : float;
}

type task = {
  id : int;
  label : string;
  work : start_ns:float -> float;
  mutable deps_left : int;
  mutable children : task list;
  mutable state : [ `Waiting | `Ready | `Done ];
  tm : times;
}

(* Min-heap of (ready time, sequence, task); the sequence breaks ties
   deterministically in schedule order.  Three parallel arrays keep the
   ready times unboxed. *)
module Heap = struct
  type h = {
    mutable key : float array;
    mutable seq : int array;
    mutable tsk : task array;
    mutable len : int;
  }

  let create () = { key = [||]; seq = [||]; tsk = [||]; len = 0 }
  let less h i j = h.key.(i) < h.key.(j) || (h.key.(i) = h.key.(j) && h.seq.(i) < h.seq.(j))

  let swap h i j =
    let k = h.key.(i) and s = h.seq.(i) and t = h.tsk.(i) in
    h.key.(i) <- h.key.(j);
    h.seq.(i) <- h.seq.(j);
    h.tsk.(i) <- h.tsk.(j);
    h.key.(j) <- k;
    h.seq.(j) <- s;
    h.tsk.(j) <- t

  let push h key seq t =
    if h.len = Array.length h.key then begin
      let cap = max 16 (2 * h.len) in
      let key' = Array.make cap 0.0 and seq' = Array.make cap 0 and tsk' = Array.make cap t in
      Array.blit h.key 0 key' 0 h.len;
      Array.blit h.seq 0 seq' 0 h.len;
      Array.blit h.tsk 0 tsk' 0 h.len;
      h.key <- key';
      h.seq <- seq';
      h.tsk <- tsk'
    end;
    h.key.(h.len) <- key;
    h.seq.(h.len) <- seq;
    h.tsk.(h.len) <- t;
    let i = ref h.len in
    h.len <- h.len + 1;
    while !i > 0 && less h !i ((!i - 1) / 2) do
      let p = (!i - 1) / 2 in
      swap h !i p;
      i := p
    done

  let pop h =
    let top = h.tsk.(0) in
    h.len <- h.len - 1;
    swap h 0 h.len;
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let m = ref !i in
      if l < h.len && less h l !m then m := l;
      if r < h.len && less h r !m then m := r;
      if !m = !i then continue := false
      else begin
        swap h !i !m;
        i := !m
      end
    done;
    top

  let is_empty h = h.len = 0
end

type t = {
  cores : int;
  host_scale : float;
  tracer : Sbt_obs.Tracer.t option;
  core_free : float array;
  ready : Heap.h;
  mutable next_id : int;
  mutable scheduled : int;
  mutable executed : int;
  span : span;
}

and span = { mutable makespan : float; mutable busy : float }

let create ?(host_scale = 1.0) ?tracer ~cores () =
  if cores <= 0 then invalid_arg "Des.create: cores must be positive";
  {
    cores;
    host_scale;
    tracer;
    core_free = Array.make cores 0.0;
    ready = Heap.create ();
    next_id = 0;
    scheduled = 0;
    executed = 0;
    span = { makespan = 0.0; busy = 0.0 };
  }

let schedule t ?(deps = []) ?(not_before = 0.0) ~label ~work () =
  let task =
    {
      id = t.next_id;
      label;
      work;
      deps_left = 0;
      children = [];
      state = `Waiting;
      tm = { ready = not_before; start = nan; finish = nan; cost = nan };
    }
  in
  t.next_id <- t.next_id + 1;
  t.scheduled <- t.scheduled + 1;
  List.iter
    (fun dep ->
      match dep.state with
      | `Done -> task.tm.ready <- Float.max task.tm.ready dep.tm.finish
      | `Waiting | `Ready ->
          task.deps_left <- task.deps_left + 1;
          dep.children <- task :: dep.children)
    deps;
  if task.deps_left = 0 then begin
    task.state <- `Ready;
    Heap.push t.ready task.tm.ready task.id task
  end;
  task

let complete t task finish =
  task.state <- `Done;
  task.tm.finish <- finish;
  t.executed <- t.executed + 1;
  if finish > t.span.makespan then t.span.makespan <- finish;
  List.iter
    (fun child ->
      child.tm.ready <- Float.max child.tm.ready finish;
      child.deps_left <- child.deps_left - 1;
      if child.deps_left = 0 then begin
        child.state <- `Ready;
        Heap.push t.ready child.tm.ready child.id child
      end)
    task.children;
  task.children <- []

let run t =
  while not (Heap.is_empty t.ready) do
    let task = Heap.pop t.ready in
    (* Greedy list scheduling: earliest-free core. *)
    let core = ref 0 in
    for c = 1 to t.cores - 1 do
      if t.core_free.(c) < t.core_free.(!core) then core := c
    done;
    let start = Float.max t.core_free.(!core) task.tm.ready in
    task.tm.start <- start;
    let host_t0 = Clock.now_ns () in
    let extra = task.work ~start_ns:start in
    let measured = Clock.elapsed_ns ~since:host_t0 in
    let cost = (measured *. t.host_scale) +. extra in
    task.tm.cost <- cost;
    let finish = start +. cost in
    t.core_free.(!core) <- finish;
    t.span.busy <- t.span.busy +. cost;
    (match t.tracer with
    | None -> ()
    | Some tr ->
        (* Virtual times only: the span mirrors the schedule the DES
           computed, so tracing cannot perturb it. *)
        Sbt_obs.Tracer.complete tr ~pid:0 ~tid:!core ~cat:"des" ~name:task.label
          ~ts_ns:start ~dur_ns:cost ());
    complete t task finish
  done;
  if t.executed <> t.scheduled then
    invalid_arg
      (Printf.sprintf "Des.run: %d task(s) never became ready (dependency cycle?)"
         (t.scheduled - t.executed))

let finish_ns task =
  match task.state with
  | `Done -> task.tm.finish
  | `Waiting | `Ready -> invalid_arg "Des.finish_ns: task not finished"

let cost_ns_of task = task.tm.cost
let makespan_ns t = t.span.makespan
let busy_ns t = t.span.busy
let tasks_executed t = t.executed

let utilization t =
  if t.span.makespan = 0.0 then 0.0 else t.span.busy /. (t.span.makespan *. float_of_int t.cores)
