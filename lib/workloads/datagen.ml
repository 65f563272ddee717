module Frame = Sbt_net.Frame
module Rng = Sbt_crypto.Rng
module Fault = Sbt_fault.Fault

type watermark_strategy = Punctuation | Heuristic of int

type spec = {
  schema : Sbt_core.Event.schema;
  windows : int;
  events_per_window : int;
  batch_events : int;
  window_ticks : int;
  window_span_ticks : int option;
  streams : int;
  encrypted : bool;
  authenticated : bool;
  key : bytes;
  seed : int64;
  gen_record : Rng.t -> ts:int32 -> int32 array;
  disorder : Fault.plan;
  max_lateness_ticks : int;
  watermark : watermark_strategy;
}

let default_key = Bytes.of_string "sbt-ingress-k16!"

let uniform_record rng ~ts =
  [| Int32.of_int (Rng.int_below rng 10_000); Rng.int32_any rng; ts |]

let default_spec ?(windows = 4) ?(events_per_window = 100_000) ?(batch_events = 10_000) () =
  {
    schema = Sbt_core.Event.default;
    windows;
    events_per_window;
    batch_events;
    window_ticks = Sbt_core.Event.ticks_per_second;
    window_span_ticks = None;
    streams = 1;
    encrypted = false;
    authenticated = false;
    key = default_key;
    seed = 7L;
    gen_record = uniform_record;
    disorder = Fault.none;
    max_lateness_ticks = Sbt_core.Event.ticks_per_second;
    watermark = Punctuation;
  }

let total_events spec = spec.windows * spec.events_per_window

(* Stream state: the rows of one pending batch per stream, as generation
   indices into the record store, flushed when full or at watermark
   boundaries. *)
type stream_state = {
  rows : int array;
  mutable buffered : int;
  mutable windows_touched : int list;
  mutable seq : int;
}

let frames spec =
  if spec.windows <= 0 || spec.events_per_window <= 0 then invalid_arg "Datagen.frames";
  let rng = Rng.create ~seed:spec.seed in
  let n = total_events spec in
  let width = spec.schema.Sbt_core.Event.width in
  let row_bytes = width * 4 in
  (* Event times advance uniformly within the window. *)
  let ts_of idx =
    let w = idx / spec.events_per_window and i = idx mod spec.events_per_window in
    (w * spec.window_ticks) + (i * spec.window_ticks / spec.events_per_window)
  in
  let stream_of idx = if spec.streams = 1 then 0 else idx mod spec.events_per_window mod spec.streams in
  (* Pass 1, source order: each record is written once, as little-endian
     fields, into one flat store.  Records consume the RNG in generation
     order, so a disorder plan only permutes delivery — every record's
     bytes are identical to the in-order run's.  Arrival ticks exist only
     once the plan delays an event. *)
  let store = Bytes.create (n * row_bytes) in
  let arrival = ref [||] in
  for idx = 0 to n - 1 do
    let ts = ts_of idx and stream = stream_of idx in
    let record = spec.gen_record rng ~ts:(Int32.of_int ts) in
    if Array.length record <> width then invalid_arg "Datagen.frames: bad record width";
    for f = 0 to width - 1 do
      Bytes.set_int32_le store ((idx * row_bytes) + (4 * f)) record.(f)
    done;
    if Fault.delays_event spec.disorder ~stream ~seq:idx then begin
      let lateness =
        Fault.lateness_ticks spec.disorder ~stream ~seq:idx ~max:spec.max_lateness_ticks
      in
      if lateness > 0 then begin
        if Array.length !arrival = 0 then arrival := Array.init n ts_of;
        !arrival.(idx) <- ts + lateness
      end
    end
  done;
  (* Delivery order: by arrival tick, ties in generation order (the sort
     is stable).  Event times never decrease with the generation index,
     so with nothing delayed delivery is generation order, and neither the
     order nor the suffix minimum below is built. *)
  let order, suffix_min =
    let arrival = !arrival in
    if Array.length arrival = 0 then ([||], [||])
    else begin
      let order = Array.init n Fun.id in
      Array.stable_sort (fun a b -> Int.compare arrival.(a) arrival.(b)) order;
      let suffix_min = Array.make (n + 1) max_int in
      for pos = n - 1 downto 0 do
        suffix_min.(pos) <- min (ts_of order.(pos)) suffix_min.(pos + 1)
      done;
      (order, suffix_min)
    end
  in
  let in_order = Array.length order = 0 in
  (* Punctuation needs the smallest event time not delivered by [pos]. *)
  let undelivered_min pos =
    if pos = n then max_int else if in_order then ts_of pos else suffix_min.(pos)
  in
  let out = ref [] in
  let states =
    Array.init spec.streams (fun _ ->
        { rows = Array.make (max 1 spec.batch_events) 0; buffered = 0; windows_touched = []; seq = 0 })
  in
  (* The tag keys are derived once per call, and only when a frame is tagged. *)
  let aead = lazy (Sbt_crypto.Aead.of_key spec.key) in
  let wm_seq = ref 0 in
  let last_wm = ref None in
  let max_ts_seen = ref (-1) in
  let flush stream st =
    if st.buffered > 0 then begin
      let payload = Bytes.create (st.buffered * row_bytes) in
      for i = 0 to st.buffered - 1 do
        Bytes.blit store (st.rows.(i) * row_bytes) payload (i * row_bytes) row_bytes
      done;
      let frame =
        Frame.Events
          {
            seq = st.seq;
            stream;
            events = st.buffered;
            windows = List.sort_uniq compare st.windows_touched;
            payload;
            encrypted = false;
            mac = Bytes.empty;
          }
      in
      let frame =
        if spec.encrypted then
          Frame.encrypt_payload ~key:(Lazy.force aead) ~stream_nonce:(Int64.of_int stream) frame
        else if spec.authenticated then Frame.seal ~key:(Lazy.force aead) frame
        else frame
      in
      out := frame :: !out;
      st.seq <- st.seq + 1;
      st.buffered <- 0;
      st.windows_touched <- []
    end
  in
  let emit_watermark value =
    (* Monotone by construction (clamped to the last emission); the
       assert and the checked constructor both guard the invariant. *)
    let value = match !last_wm with Some l -> max l value | None -> value in
    (match !last_wm with Some l -> assert (value >= l) | None -> ());
    out := Frame.watermark ?last:!last_wm ~seq:!wm_seq ~value () :: !out;
    incr wm_seq;
    last_wm := Some value
  in
  let size = Option.value ~default:spec.window_ticks spec.window_span_ticks in
  for pos = 0 to n - 1 do
    let idx = if in_order then pos else order.(pos) in
    let ts = ts_of idx in
    if ts > !max_ts_seen then max_ts_seen := ts;
    let st = states.(stream_of idx) in
    st.rows.(st.buffered) <- idx;
    st.buffered <- st.buffered + 1;
    let lo, hi = Sbt_prim.Segment.windows_of ~ts ~size ~slide:spec.window_ticks in
    for wi = lo to hi do
      if not (List.mem wi st.windows_touched) then st.windows_touched <- wi :: st.windows_touched
    done;
    if st.buffered >= spec.batch_events then flush (stream_of idx) st;
    (* One watermark per window's worth of deliveries — the in-order
       cadence, whatever the permutation did. *)
    if (pos + 1) mod spec.events_per_window = 0 then begin
      Array.iteri flush states;
      let w = pos / spec.events_per_window in
      match spec.watermark with
      | Punctuation ->
          (* Exact: never overtakes an undelivered event, so punctuated
             sources produce no late data — windows just close later. *)
          emit_watermark (min ((w + 1) * spec.window_ticks) (undelivered_min (pos + 1)))
      | Heuristic bound ->
          (* Bounded-disorder estimate: admits late data whenever real
             lateness exceeds [bound]. *)
          emit_watermark (max 0 (!max_ts_seen - bound))
    end
  done;
  (* The source closing the stream is itself punctuation: everything has
     been delivered, so the final watermark is exact under either
     strategy. *)
  let final = spec.windows * spec.window_ticks in
  if !last_wm <> Some final then begin
    Array.iteri flush states;
    emit_watermark final
  end;
  List.rev !out
