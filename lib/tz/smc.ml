type entry = Init | Finalize | Debug | Invoke

let entry_count = 4

let entry_name = function
  | Init -> "init"
  | Finalize -> "finalize"
  | Debug -> "debug"
  | Invoke -> "invoke"

exception Entry_busy of entry

type t = {
  platform : Platform.t;
  mutable busy_rejections : int;
  mutable observer : (Sbt_obs.Tracer.t * (unit -> float)) option;
}

let create platform = { platform; busy_rejections = 0; observer = None }
let busy_rejections t = t.busy_rejections
let set_observer t ~tracer ~now_ns = t.observer <- Some (tracer, now_ns)

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

(* Refused at the monitor: no world switch happened, so none is charged
   and none needs restoring. *)
let refuse t entry =
  t.busy_rejections <- t.busy_rejections + 1;
  (match t.observer with
  | None -> ()
  | Some (tracer, now_ns) ->
      Sbt_obs.Tracer.instant tracer ~pid:1 ~tid:0 ~cat:"smc-busy"
        ~name:("busy:" ^ entry_name entry) ~ts_ns:(now_ns ()) ());
  raise (Entry_busy entry)

let call t entry work =
  Platform.enter_secure t.platform;
  let r =
    try work ()
    with exn ->
      Platform.exit_secure t.platform;
      trace_switch t entry;
      raise exn
  in
  Platform.exit_secure t.platform;
  trace_switch t entry;
  r

let switch_pairs t = t.platform.Platform.switch_pairs
