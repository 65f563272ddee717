type task = {
  id : int;
  label : string;
  work : start_ns:float -> float;
  mutable deps_left : int;
  mutable children : task list;
  mutable ready_ns : float; (* max of not_before and finished deps *)
  mutable state : [ `Waiting | `Ready | `Done ];
  mutable start_ns : float;
  mutable finish : float;
  mutable cost : float;
}

(* Min-heap of (ready time, sequence, task); the sequence breaks ties
   deterministically in schedule order. *)
module Heap = struct
  type entry = { key : float; seq : int; t : task }
  type h = { mutable data : entry array; mutable len : int }

  let create () = { data = [||]; len = 0 }

  let less a b = a.key < b.key || (a.key = b.key && a.seq < b.seq)

  let push h e =
    if h.len = Array.length h.data then begin
      let bigger = Array.make (max 16 (2 * h.len)) e in
      Array.blit h.data 0 bigger 0 h.len;
      h.data <- bigger
    end;
    h.data.(h.len) <- e;
    let i = ref h.len in
    h.len <- h.len + 1;
    while !i > 0 && less h.data.(!i) h.data.((!i - 1) / 2) do
      let p = (!i - 1) / 2 in
      let t = h.data.(!i) in
      h.data.(!i) <- h.data.(p);
      h.data.(p) <- t;
      i := p
    done

  let pop h =
    let top = h.data.(0) in
    h.len <- h.len - 1;
    h.data.(0) <- h.data.(h.len);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let m = ref !i in
      if l < h.len && less h.data.(l) h.data.(!m) then m := l;
      if r < h.len && less h.data.(r) h.data.(!m) then m := r;
      if !m = !i then continue := false
      else begin
        let t = h.data.(!i) in
        h.data.(!i) <- h.data.(!m);
        h.data.(!m) <- t;
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
  mutable makespan : float;
  mutable busy : float;
}

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
    makespan = 0.0;
    busy = 0.0;
  }

let schedule t ?(deps = []) ?(not_before = 0.0) ~label ~work () =
  let task =
    {
      id = t.next_id;
      label;
      work;
      deps_left = 0;
      children = [];
      ready_ns = not_before;
      state = `Waiting;
      start_ns = nan;
      finish = nan;
      cost = nan;
    }
  in
  t.next_id <- t.next_id + 1;
  t.scheduled <- t.scheduled + 1;
  List.iter
    (fun dep ->
      match dep.state with
      | `Done -> task.ready_ns <- Float.max task.ready_ns dep.finish
      | `Waiting | `Ready ->
          task.deps_left <- task.deps_left + 1;
          dep.children <- task :: dep.children)
    deps;
  if task.deps_left = 0 then begin
    task.state <- `Ready;
    Heap.push t.ready { Heap.key = task.ready_ns; seq = task.id; t = task }
  end;
  task

let complete t task finish =
  task.state <- `Done;
  task.finish <- finish;
  t.executed <- t.executed + 1;
  if finish > t.makespan then t.makespan <- finish;
  List.iter
    (fun child ->
      child.ready_ns <- Float.max child.ready_ns finish;
      child.deps_left <- child.deps_left - 1;
      if child.deps_left = 0 then begin
        child.state <- `Ready;
        Heap.push t.ready { Heap.key = child.ready_ns; seq = child.id; t = child }
      end)
    task.children;
  task.children <- []

let run t =
  while not (Heap.is_empty t.ready) do
    let { Heap.t = task; _ } = Heap.pop t.ready in
    (* Greedy list scheduling: earliest-free core. *)
    let core = ref 0 in
    for c = 1 to t.cores - 1 do
      if t.core_free.(c) < t.core_free.(!core) then core := c
    done;
    let start = Float.max t.core_free.(!core) task.ready_ns in
    task.start_ns <- start;
    let host_t0 = Clock.now_ns () in
    let extra = task.work ~start_ns:start in
    let measured = Clock.elapsed_ns ~since:host_t0 in
    let cost = (measured *. t.host_scale) +. extra in
    task.cost <- cost;
    let finish = start +. cost in
    t.core_free.(!core) <- finish;
    t.busy <- t.busy +. cost;
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
  | `Done -> task.finish
  | `Waiting | `Ready -> invalid_arg "Des.finish_ns: task not finished"

let cost_ns_of task = task.cost
let makespan_ns t = t.makespan
let busy_ns t = t.busy
let tasks_executed t = t.executed

let utilization t =
  if t.makespan = 0.0 then 0.0 else t.busy /. (t.makespan *. float_of_int t.cores)
