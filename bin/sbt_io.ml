(* Shared on-disk formats for the CLI tools:

   - frame streams written by sbt_datagen and consumed by sbt_run;
   - audit logs (verifier spec + signed batches) written by sbt_run and
     consumed by sbt_verify. *)

module Frame = Sbt_net.Frame
module Log = Sbt_attest.Log
module V = Sbt_attest.Verifier

let frames_magic = "SBTD2"
let audit_magic = "SBTA1"
let fleet_magic = "SBTF1"

let write_u32 buf v =
  for i = 0 to 3 do
    Buffer.add_char buf (Char.unsafe_chr ((v lsr (8 * i)) land 0xFF))
  done

let read_u32 ic =
  let a = input_byte ic in
  let b = input_byte ic in
  let c = input_byte ic in
  let d = input_byte ic in
  a lor (b lsl 8) lor (c lsl 16) lor (d lsl 24)

let write_bytes_block buf b =
  write_u32 buf (Bytes.length b);
  Buffer.add_bytes buf b

let read_bytes_block ic =
  let n = read_u32 ic in
  let b = Bytes.create n in
  really_input ic b 0 n;
  b

(* --- frames --------------------------------------------------------------- *)

let write_frames path frames =
  let buf = Buffer.create (1 lsl 20) in
  Buffer.add_string buf frames_magic;
  write_u32 buf (List.length frames);
  List.iter
    (fun f ->
      match f with
      | Frame.Watermark { seq; value } ->
          Buffer.add_char buf '\001';
          write_u32 buf seq;
          write_u32 buf value
      | Frame.Events { seq; stream; events; windows; payload; encrypted; mac } ->
          Buffer.add_char buf '\000';
          write_u32 buf seq;
          write_u32 buf stream;
          write_u32 buf events;
          write_u32 buf (List.length windows);
          List.iter (write_u32 buf) windows;
          Buffer.add_char buf (if encrypted then '\001' else '\000');
          write_bytes_block buf payload;
          write_bytes_block buf mac)
    frames;
  let oc = open_out_bin path in
  Buffer.output_buffer oc buf;
  close_out oc

let read_frames path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let magic = really_input_string ic 5 in
      if magic <> frames_magic then invalid_arg "sbt_io: not a frame file";
      let n = read_u32 ic in
      List.init n (fun _ ->
          match input_byte ic with
          | 1 ->
              let seq = read_u32 ic in
              let value = read_u32 ic in
              Frame.Watermark { seq; value }
          | 0 ->
              let seq = read_u32 ic in
              let stream = read_u32 ic in
              let events = read_u32 ic in
              let nw = read_u32 ic in
              let windows = List.init nw (fun _ -> read_u32 ic) in
              let encrypted = input_byte ic = 1 in
              let payload = read_bytes_block ic in
              let mac = read_bytes_block ic in
              Frame.Events { seq; stream; events; windows; payload; encrypted; mac }
          | k -> invalid_arg (Printf.sprintf "sbt_io: bad frame kind %d" k)))

(* --- sealed results --------------------------------------------------------

   Canonical dump of a run's sealed per-window results, used to compare
   runs byte-for-byte (CI pins their digests and diffs crashed against
   clean runs). *)

let results_magic = "SBTR1"

let write_results path (results : (int * Sbt_core.Dataplane.sealed_result) list) =
  let buf = Buffer.create (1 lsl 16) in
  Buffer.add_string buf results_magic;
  write_u32 buf (List.length results);
  List.iter
    (fun (w, (s : Sbt_core.Dataplane.sealed_result)) ->
      write_u32 buf w;
      write_u32 buf s.Sbt_core.Dataplane.window;
      write_u32 buf s.Sbt_core.Dataplane.events;
      write_u32 buf s.Sbt_core.Dataplane.width;
      write_bytes_block buf s.Sbt_core.Dataplane.cipher;
      write_bytes_block buf s.Sbt_core.Dataplane.tag)
    results;
  let oc = open_out_bin path in
  Buffer.output_buffer oc buf;
  close_out oc

(* --- audit logs ------------------------------------------------------------ *)

let write_spec buf (spec : V.spec) =
  write_u32 buf (List.length spec.V.batch_ops);
  List.iter (write_u32 buf) spec.V.batch_ops;
  write_u32 buf (List.length spec.V.window_ops);
  List.iter (write_u32 buf) spec.V.window_ops;
  write_u32 buf spec.V.window_size;
  write_u32 buf spec.V.window_slide;
  write_u32 buf (match spec.V.freshness_bound with None -> 0 | Some b -> b + 1);
  write_u32 buf spec.V.late_policy;
  write_u32 buf (match spec.V.session_gap with None -> 0 | Some g -> g)

let read_spec ic =
  let n_batch_ops = read_u32 ic in
  let batch_ops = List.init n_batch_ops (fun _ -> read_u32 ic) in
  let n_window_ops = read_u32 ic in
  let window_ops = List.init n_window_ops (fun _ -> read_u32 ic) in
  let window_size = read_u32 ic in
  let window_slide = read_u32 ic in
  let fb = read_u32 ic in
  let freshness_bound = if fb = 0 then None else Some (fb - 1) in
  let late_policy = read_u32 ic in
  let sg = read_u32 ic in
  let session_gap = if sg = 0 then None else Some sg in
  { V.batch_ops; window_ops; window_size; window_slide; freshness_bound; late_policy; session_gap }

let write_batch buf (b : Log.batch) =
  write_u32 buf b.Log.seq;
  write_bytes_block buf b.Log.payload;
  write_bytes_block buf b.Log.tag

let read_batch ic =
  let seq = read_u32 ic in
  let payload = read_bytes_block ic in
  let tag = read_bytes_block ic in
  { Log.seq; payload; tag }

let write_audit path (spec : V.spec) batches =
  let buf = Buffer.create (1 lsl 16) in
  Buffer.add_string buf audit_magic;
  write_spec buf spec;
  write_u32 buf (List.length batches);
  List.iter (write_batch buf) batches;
  let oc = open_out_bin path in
  Buffer.output_buffer oc buf;
  close_out oc

let read_audit path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let magic = really_input_string ic 5 in
      if magic <> audit_magic then invalid_arg "sbt_io: not an audit file";
      let spec = read_spec ic in
      let n = read_u32 ic in
      let batches = List.init n (fun _ -> read_batch ic) in
      (spec, batches))

(* --- fleet audit bundles ----------------------------------------------------

   What M edges ship to the cloud after a (possibly churned) fleet run:
   the shared pipeline declaration, fleet geometry, the sealed handoff
   manifests, and each edge's per-partition epoch chains (sealed epoch
   manifest + signed audit batches per boot).  sbt_verify dispatches on
   the magic and judges the bundle with Verifier.verify_fleet. *)

let write_sealed buf (payload, tag) =
  write_bytes_block buf payload;
  write_bytes_block buf tag

let read_sealed ic =
  let payload = read_bytes_block ic in
  let tag = read_bytes_block ic in
  (payload, tag)

let write_fleet_audit path (spec : V.spec) ~partitions ~windows
    (edges : V.edge_chains list) (handoffs : Sbt_attest.Handoff.sealed list) =
  let buf = Buffer.create (1 lsl 16) in
  Buffer.add_string buf fleet_magic;
  write_spec buf spec;
  write_u32 buf partitions;
  write_u32 buf windows;
  write_u32 buf (List.length handoffs);
  List.iter
    (fun (h : Sbt_attest.Handoff.sealed) ->
      write_sealed buf (h.Sbt_attest.Handoff.payload, h.Sbt_attest.Handoff.tag))
    handoffs;
  write_u32 buf (List.length edges);
  List.iter
    (fun (e : V.edge_chains) ->
      write_u32 buf e.V.edge;
      write_u32 buf (List.length e.V.chains);
      List.iter
        (fun (partition, epochs) ->
          write_u32 buf partition;
          write_u32 buf (List.length epochs);
          List.iter
            (fun ((m : Sbt_attest.Epoch.sealed), batches) ->
              write_sealed buf (m.Sbt_attest.Epoch.payload, m.Sbt_attest.Epoch.tag);
              write_u32 buf (List.length batches);
              List.iter (write_batch buf) batches)
            epochs)
        e.V.chains)
    edges;
  let oc = open_out_bin path in
  Buffer.output_buffer oc buf;
  close_out oc

let read_fleet_audit path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let magic = really_input_string ic 5 in
      if magic <> fleet_magic then invalid_arg "sbt_io: not a fleet audit bundle";
      let spec = read_spec ic in
      let partitions = read_u32 ic in
      let windows = read_u32 ic in
      let n_handoffs = read_u32 ic in
      let handoffs =
        List.init n_handoffs (fun _ ->
            let payload, tag = read_sealed ic in
            { Sbt_attest.Handoff.payload; tag })
      in
      let n_edges = read_u32 ic in
      let edges =
        List.init n_edges (fun _ ->
            let edge = read_u32 ic in
            let n_chains = read_u32 ic in
            let chains =
              List.init n_chains (fun _ ->
                  let partition = read_u32 ic in
                  let n_epochs = read_u32 ic in
                  let epochs =
                    List.init n_epochs (fun _ ->
                        let payload, tag = read_sealed ic in
                        let n_batches = read_u32 ic in
                        let batches = List.init n_batches (fun _ -> read_batch ic) in
                        ({ Sbt_attest.Epoch.payload; tag }, batches))
                  in
                  (partition, epochs))
            in
            { V.edge; chains })
      in
      (spec, partitions, windows, edges, handoffs))

let file_magic path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> try really_input_string ic 5 with End_of_file -> "")
