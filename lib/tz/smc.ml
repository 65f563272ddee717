type entry = Init | Finalize | Debug | Invoke

let entry_count = 4

let entry_name = function
  | Init -> "init"
  | Finalize -> "finalize"
  | Debug -> "debug"
  | Invoke -> "invoke"

let entry_index = function Init -> 0 | Finalize -> 1 | Debug -> 2 | Invoke -> 3

exception Entry_busy of entry

type ('req, 'resp) t = {
  platform : Platform.t;
  handlers : ('req -> 'resp) option array;
  mutable fault_hook : (entry -> 'req -> bool) option;
  mutable busy_rejections : int;
  mutable observer : (Sbt_obs.Tracer.t * (unit -> float)) option;
}

let create platform =
  {
    platform;
    handlers = Array.make entry_count None;
    fault_hook = None;
    busy_rejections = 0;
    observer = None;
  }

let set_fault_hook t hook = t.fault_hook <- Some hook
let clear_fault_hook t = t.fault_hook <- None
let busy_rejections t = t.busy_rejections

let set_observer t ~tracer ~now_ns = t.observer <- Some (tracer, now_ns)
let clear_observer t = t.observer <- None

(* One "smc" complete span per charged switch pair, so a trace's span
   count can be checked against Platform accounting.  Times come from
   the caller's virtual clock and the modeled switch cost — never the
   host clock. *)
let trace_switch t entry =
  match t.observer with
  | None -> ()
  | Some (tracer, now_ns) ->
      Sbt_obs.Tracer.complete tracer ~pid:1 ~tid:0 ~cat:"smc" ~name:(entry_name entry)
        ~ts_ns:(now_ns ()) ~dur_ns:t.platform.Platform.cost.Cost_model.world_switch_ns ()

let trace_busy t entry =
  match t.observer with
  | None -> ()
  | Some (tracer, now_ns) ->
      Sbt_obs.Tracer.instant tracer ~pid:1 ~tid:0 ~cat:"smc-busy"
        ~name:("busy:" ^ entry_name entry) ~ts_ns:(now_ns ()) ()

let register t entry f =
  let i = entry_index entry in
  match t.handlers.(i) with
  | Some _ -> invalid_arg ("Smc.register: handler already registered for " ^ entry_name entry)
  | None -> t.handlers.(i) <- Some f

let call t entry req =
  match t.handlers.(entry_index entry) with
  | None -> raise Not_found
  | Some f ->
      (match t.fault_hook with
      | Some hook when hook entry req ->
          (* Refused at the monitor: no world switch happened, so none is
             charged and none needs restoring. *)
          t.busy_rejections <- t.busy_rejections + 1;
          trace_busy t entry;
          raise (Entry_busy entry)
      | _ -> ());
      Platform.enter_secure t.platform;
      let resp =
        try f req
        with exn ->
          Platform.exit_secure t.platform;
          trace_switch t entry;
          raise exn
      in
      Platform.exit_secure t.platform;
      trace_switch t entry;
      resp

let switch_pairs t = t.platform.Platform.switch_pairs
