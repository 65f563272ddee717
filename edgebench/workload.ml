(* The four benchmark workloads.  Each is one [Sbt_workloads.Benchmarks]
   constructor with its seed overridden; the sizes are chosen so that one
   layer dominates the edge run (see NOTES.md for the measured split). *)

module B = Sbt_workloads.Benchmarks
module Datagen = Sbt_workloads.Datagen
module D = Sbt_core.Dataplane

type kind = Distinct | Power | Join | Fps

type size = { windows : int; events_per_window : int; batch_events : int }

type t = {
  name : string;
  kind : kind;
  version : D.version;
  bench : B.t;
  offered_eps : float;
      (** fixed open-loop ingestion rate at which per-window delay is
          measured: 2-30% of the sustainable 8-core rate when the
          benchmark was written, so no backlog builds up *)
}

type def = {
  d_name : string;
  d_kind : kind;
  d_version : D.version;
  d_ctor :
    ?windows:int -> ?events_per_window:int -> ?batch_events:int -> ?encrypted:bool -> unit -> B.t;
  d_encrypted : bool;
  d_size : size;
  d_offered_eps : float;
}

let defs =
  [
    {
      d_name = "taxi-enc";
      d_kind = Distinct;
      d_version = D.Full;
      d_ctor = B.distinct;
      d_encrypted = true;
      d_size = { windows = 16; events_per_window = 10_000; batch_events = 5_000 };
      d_offered_eps = 2.0e6;
    };
    {
      d_name = "grid-clear";
      d_kind = Power;
      d_version = D.Clear_ingress;
      d_ctor = B.power;
      d_encrypted = false;
      d_size = { windows = 16; events_per_window = 60_000; batch_events = 20_000 };
      d_offered_eps = 4.0e6;
    };
    {
      d_name = "join-egress";
      d_kind = Join;
      d_version = D.Clear_ingress;
      d_ctor = B.join;
      d_encrypted = false;
      d_size = { windows = 16; events_per_window = 30_000; batch_events = 15_000 };
      d_offered_eps = 1.0e6;
    };
    {
      d_name = "fps-small";
      d_kind = Fps;
      d_version = D.Clear_ingress;
      d_ctor = B.fps;
      d_encrypted = false;
      d_size = { windows = 16; events_per_window = 8_000; batch_events = 64 };
      d_offered_eps = 2.0e5;
    };
  ]

let names = List.map (fun d -> d.d_name) defs

(* Columnar packs an Execution record's input, output and hint counts into
   one byte each, so a window-close op over 255 or more segments (plus its
   trigger) no longer verifies.  Datagen flushes every stream at each
   window boundary, so a window's segments are exactly its batches. *)
let max_batches_per_window = 254

let batches_per_window (spec : Datagen.spec) =
  let per_stream = (spec.events_per_window + spec.streams - 1) / spec.streams in
  spec.streams * ((per_stream + spec.batch_events - 1) / spec.batch_events)

let check_batches name (spec : Datagen.spec) =
  let n = batches_per_window spec in
  if n > max_batches_per_window then
    Error
      (Printf.sprintf
         "%s: %d batches per window (%d events, %d-event batches, %d stream(s)); at most %d are \
          allowed because an audit Execution record stores its input count in one byte, so the \
          window-close merge over 255 or more segments fails verification"
         name n spec.events_per_window spec.batch_events spec.streams max_batches_per_window)
  else Ok ()

let make ?size name ~seed =
  match List.find_opt (fun d -> d.d_name = name) defs with
  | None ->
      Error
        (Printf.sprintf "unknown workload %S (expected one of: %s)" name (String.concat ", " names))
  | Some d -> (
      let s = Option.value ~default:d.d_size size in
      let b =
        d.d_ctor ~windows:s.windows ~events_per_window:s.events_per_window
          ~batch_events:s.batch_events ~encrypted:d.d_encrypted ()
      in
      let spec =
        { b.B.spec with Datagen.seed = Int64.of_int seed; authenticated = d.d_encrypted }
      in
      match check_batches name spec with
      | Error _ as e -> e
      | Ok () ->
          Ok
            {
              name;
              kind = d.d_kind;
              version = d.d_version;
              bench = { b with B.spec };
              offered_eps = d.d_offered_eps;
            })

let events t = Datagen.total_events t.bench.B.spec
