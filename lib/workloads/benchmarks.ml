module P = Sbt_core.Pipeline
module Rng = Sbt_crypto.Rng

type t = {
  name : string;
  pipeline : P.t;
  target_delay_ms : float;
  spec : Datagen.spec;
}

let base_spec ?(windows = 4) ?(events_per_window = 100_000) ?(batch_events = 10_000)
    ?(encrypted = false) ~schema ~streams ~seed ~gen () =
  {
    (Datagen.default_spec ~windows ~events_per_window ~batch_events ()) with
    Datagen.schema;
    streams;
    encrypted;
    seed;
    gen_record = gen;
  }

(* Synthetic 3-field events: bounded keys (grouping needs groups), uniform
   32-bit values (the paper's synthetic datasets). *)
let synthetic_gen ~nkeys rng ~ts =
  [| Int32.of_int (Rng.int_below rng nkeys); Rng.int32_any rng; ts |]

let topk ?windows ?events_per_window ?batch_events ?encrypted () =
  {
    name = "TopK";
    pipeline = P.group_topk ~k:10 ();
    target_delay_ms = 500.0;
    spec =
      base_spec ?windows ?events_per_window ?batch_events ?encrypted
        ~schema:Sbt_core.Event.default ~streams:1 ~seed:11L
        ~gen:(synthetic_gen ~nkeys:10_000) ();
  }

(* DEBS'15 taxi model: 11k distinct taxi ids, Zipf popularity (busy cabs
   report more), value = trip fare in cents. *)
let taxi_ids = 11_000

let distinct ?windows ?events_per_window ?batch_events ?encrypted () =
  let zipf = Zipf.create ~n:taxi_ids ~s:0.9 in
  let gen rng ~ts =
    [| Int32.of_int (Zipf.sample zipf rng); Int32.of_int (500 + Rng.int_below rng 5_000); ts |]
  in
  {
    name = "Distinct";
    pipeline = P.distinct ();
    target_delay_ms = 200.0;
    spec =
      base_spec ?windows ?events_per_window ?batch_events ?encrypted
        ~schema:Sbt_core.Event.default ~streams:1 ~seed:15L ~gen ();
  }

let join ?windows ?events_per_window ?batch_events ?encrypted () =
  (* Keys drawn from a moderate space so windows produce real matches. *)
  let gen rng ~ts =
    [| Int32.of_int (Rng.int_below rng 50_000); Rng.int32_any rng; ts |]
  in
  {
    name = "Join";
    pipeline = P.temp_join ();
    target_delay_ms = 250.0;
    spec =
      base_spec ?windows ?events_per_window ?batch_events ?encrypted
        ~schema:Sbt_core.Event.default ~streams:2 ~seed:23L ~gen ();
  }

(* Random-walk state that restarts with each stream: [walk ~n ~init]
   returns a function from the generator to the walk's [n] positions,
   reset to [init] whenever it is handed a generator other than the last
   one.  [Datagen.frames] and every replay of [gen_record] each create one
   generator, so each replay of a spec walks from the same start. *)
let walk ~n ~init =
  let pos = Array.make n init and owner = ref None in
  fun rng ->
    (match !owner with
    | Some r when r == rng -> ()
    | _ ->
        Array.fill pos 0 n init;
        owner := Some rng);
    pos

(* Intel Lab model: 54 motes, temperature random walks (x100 fixed point). *)
let win_sum ?windows ?events_per_window ?batch_events ?encrypted () =
  let walk = walk ~n:54 ~init:2_200 in
  let gen rng ~ts =
    let temps = walk rng in
    let mote = Rng.int_below rng 54 in
    temps.(mote) <- max 1_000 (min 4_500 (temps.(mote) + Rng.int_below rng 21 - 10));
    [| Int32.of_int mote; Int32.of_int temps.(mote); ts |]
  in
  {
    name = "WinSum";
    pipeline = P.win_sum ();
    target_delay_ms = 20.0;
    spec =
      base_spec ?windows ?events_per_window ?batch_events ?encrypted
        ~schema:Sbt_core.Event.default ~streams:1 ~seed:31L ~gen ();
  }

(* The fusion showcase: five adjacent per-record batch stages, which run
   as one fused chain per segment; the bench's fusion section reports the
   world switches and audit volume on exactly this workload. *)
let fps ?windows ?events_per_window ?batch_events ?encrypted () =
  {
    name = "FpsChain";
    pipeline = P.fps_chain ();
    target_delay_ms = 10.0;
    spec =
      base_spec ?windows ?events_per_window ?batch_events ?encrypted
        ~schema:Sbt_core.Event.default ~streams:1 ~seed:43L
        ~gen:(synthetic_gen ~nkeys:10_000) ();
  }

let filter ?windows ?events_per_window ?batch_events ?encrypted () =
  {
    name = "Filter";
    pipeline = P.filter (); (* default band keeps ~1% of uniform values *)
    target_delay_ms = 10.0;
    spec =
      base_spec ?windows ?events_per_window ?batch_events ?encrypted
        ~schema:Sbt_core.Event.default ~streams:1 ~seed:37L
        ~gen:(synthetic_gen ~nkeys:10_000) ();
  }

(* DEBS'14 power model: 40 houses x 20 plugs; each plug has a baseline load
   plus noise; 4-field 16-byte events as in the paper. *)
let houses = 40
let plugs_per_house = 20

let power ?windows ?events_per_window ?batch_events ?encrypted () =
  let baselines =
    let rng = Rng.create ~seed:77L in
    Array.init (houses * plugs_per_house) (fun _ -> 20 + Rng.int_below rng 380)
  in
  let gen rng ~ts =
    let house = Rng.int_below rng houses in
    let plug = Rng.int_below rng plugs_per_house in
    let idx = (house * plugs_per_house) + plug in
    let load = max 0 (baselines.(idx) + Rng.int_below rng 41 - 20) in
    [| Int32.of_int ((house * 256) + plug); Int32.of_int load; ts; Int32.of_int house |]
  in
  {
    name = "Power";
    pipeline = P.power_grid ~k:10 ();
    target_delay_ms = 600.0;
    spec =
      base_spec ?windows ?events_per_window ?batch_events ?encrypted
        ~schema:Sbt_core.Event.power ~streams:1 ~seed:41L ~gen ();
  }

(* Medical vitals model: 200 patients, heart-rate random walks (bpm x 10
   fixed point), keyed by patient id.  The pipeline's sort + per-key
   average canonicalizes segment contents, so sealed output is
   arrival-order-insensitive — the basis of the disorder property. *)
let patients = 200

let vitals ?windows ?events_per_window ?batch_events ?encrypted () =
  let walk = walk ~n:patients ~init:750 in
  let gen rng ~ts =
    let rates = walk rng in
    let p = Rng.int_below rng patients in
    rates.(p) <- max 400 (min 1_800 (rates.(p) + Rng.int_below rng 31 - 15));
    [| Int32.of_int p; Int32.of_int rates.(p); ts |]
  in
  {
    name = "Vitals";
    pipeline = P.vitals ();
    target_delay_ms = 500.0;
    spec =
      base_spec ?windows ?events_per_window ?batch_events ?encrypted
        ~schema:Sbt_core.Event.default ~streams:1 ~seed:53L ~gen ();
  }

let all ?windows ?events_per_window ?batch_events ?encrypted () =
  [
    topk ?windows ?events_per_window ?batch_events ?encrypted ();
    distinct ?windows ?events_per_window ?batch_events ?encrypted ();
    join ?windows ?events_per_window ?batch_events ?encrypted ();
    win_sum ?windows ?events_per_window ?batch_events ?encrypted ();
    fps ?windows ?events_per_window ?batch_events ?encrypted ();
    filter ?windows ?events_per_window ?batch_events ?encrypted ();
    power ?windows ?events_per_window ?batch_events ?encrypted ();
  ]

let by_name name =
  match String.lowercase_ascii name with
  | "topk" -> Some topk
  | "distinct" -> Some distinct
  | "join" -> Some join
  | "winsum" -> Some win_sum
  | "fps" -> Some fps
  | "filter" -> Some filter
  | "power" -> Some power
  | "vitals" -> Some vitals
  | _ -> None

let frames t = Datagen.frames t.spec

(* Multi-tenant mixes: the named workload families the tenants bench and
   `sbt_run --tenant-mix` drive through one enclave.  Tenant [i] of a mix
   cycles through the family's constructors, so "hundreds of small
   pipelines" need only a mix name and a count. *)
let mix_names = [ "taxi"; "power"; "mixed" ]

let mix ?windows ?events_per_window ?batch_events ?encrypted name i =
  let pick ctors = List.nth ctors (i mod List.length ctors) in
  let family =
    match String.lowercase_ascii name with
    | "taxi" -> Some [ topk; distinct ] (* per-fleet taxi analytics *)
    | "power" -> Some [ power; win_sum ] (* per-district grid monitoring *)
    | "mixed" -> Some [ topk; distinct; join; win_sum; fps; filter; power ]
    | _ -> None
  in
  Option.map
    (fun ctors -> (pick ctors) ?windows ?events_per_window ?batch_events ?encrypted ())
    family
