(* Fleet runner: M simulated edge nodes over one key-partitioned
   workload, a beat-indexed failure detector driving attested partition
   handoff on permanent death, and a cloud-side combiner + fleet
   verifier on the egress.

   Time model: one beat per closed window.  An edge heartbeats at every
   beat it closes a window; the detector ticks after each beat's
   deliveries.  Kills halt an edge exactly at a checkpoint boundary (the
   checkpoint for the beat is durable, in-TEE state is lost), which is
   what makes churned runs byte-identical to clean ones: recovery — on
   the same edge for a transient crash, on a survivor via handoff for a
   declared death — resumes from that durable cut and re-ingests the
   un-acknowledged replay suffix, exactly the PR-5 crash invariant
   lifted to the fleet. *)

module D = Sbt_core.Dataplane
module R = Sbt_core.Runtime
module P = Sbt_core.Pipeline
module F = Sbt_net.Frame
module E = Sbt_attest.Epoch
module V = Sbt_attest.Verifier
module H = Sbt_attest.Handoff
module Fault = Sbt_fault.Fault
module M = Sbt_obs.Metrics

exception No_survivor of { partition : int; beat : int }

type fate =
  | Ran
  | Recovered of { halted_at : int; resumed_beat : int }
  | Dead of { declared_at : int; fenced_window : int option; recipient : int option }

type summary = {
  nodes : int;
  windows : int;
  merged : (int * int * D.sealed_result) list;
  report : V.fleet_report;
  edges : V.edge_chains list;
  handoffs : (H.manifest * H.sealed) list;
  fates : fate array;
  deaths : int;
  suspicions_raised : int;
  suspicions_cleared : int;
  fenced_heartbeats : int;
  replayed_frames : int;
  total_events : int;
  makespan_ns : float;
  uplink_bytes : int;
  registry : M.t;
}

let range a b = if a > b then [] else List.init (b - a + 1) (fun i -> a + i)

let closable_windows ~size ~slide frames =
  let wm_max =
    List.fold_left
      (fun acc f -> match f with F.Watermark { value; _ } -> max acc value | _ -> acc)
      0 frames
  in
  if wm_max >= size then ((wm_max - size) / slide) + 1 else 0

let run ?(ckpt_every = 1) ?(rogue_handoff = false) ~scenario ~nodes:m ~batch_events cfg pipe
    frames =
  if m < 1 then invalid_arg "Fleet.run: nodes must be >= 1";
  let size = pipe.P.window_size_ticks and slide = pipe.P.window_slide_ticks in
  let w_total = closable_windows ~size ~slide frames in
  if w_total < 1 then invalid_arg "Fleet.run: workload closes no windows";
  let last = w_total - 1 in
  let sa = scenario.Fault.suspect_after and ra = scenario.Fault.recover_after in
  let event_of = Array.make m None in
  List.iter
    (fun e ->
      let n = Fault.fleet_event_node e in
      if n >= m then invalid_arg "Fleet.run: scenario event for node outside the fleet";
      event_of.(n) <- Some e)
    scenario.Fault.events;
  let parts =
    Partition.split ~parts:m ~schema:pipe.P.schema ~window_size:size ~window_slide:slide
      ~batch_events frames
  in
  let total_events =
    List.fold_left
      (fun acc f -> match f with F.Events { events; _ } -> acc + events | _ -> acc)
      0 frames
  in
  (* ---- heartbeat delivery schedules (1 tick = 1ms of virtual time) ---- *)
  let beat_ns = float_of_int slide *. 1e6 in
  let hb_schedule n =
    match event_of.(n) with
    | None -> range 0 last
    | Some (Fault.Kill { at_beat = k; _ }) when k > last -> range 0 last
    | Some (Fault.Kill { at_beat = k; permanent; _ }) ->
        let base = range 0 k in
        if permanent then base
        else
          (* reboot recover_after beats after the halt; remaining windows
             close one per beat from there (a bare liveness ping if the
             halt already closed the last window) *)
          let r = k + ra in
          base @ (if k >= last then [ r ] else range r (r + last - k - 1))
    | Some (Fault.Uplink_partition { at_beat = a; beats = b; _ }) ->
        let r =
          Fault.reconnect_beat cfg.R.dp_config.D.fault_plan ~node:n ~at_beat:a ~beats:b ~beat_ns
        in
        range 0 (min (a - 1) last) @ (if r <= last then range r last else [ r ])
    | Some (Fault.Straggle { factor; _ }) ->
        List.sort_uniq compare
          (List.init w_total (fun w -> int_of_float (Float.round (float_of_int w *. factor))))
  in
  let schedules = Array.init m hb_schedule in
  (* ---- detector replay over the full beat horizon ---- *)
  (* The horizon runs suspect_after past the newest scheduled heartbeat
     so every pending death matures.  A node that finishes its stream is
     idle, not dead: everyone except a permanently-killed edge keeps
     pinging through the horizon after its last working heartbeat. *)
  let max_hb = Array.fold_left (fun acc l -> List.fold_left max acc l) last schedules in
  let horizon = max_hb + sa + 1 in
  let idles_after_finish n =
    match event_of.(n) with
    | Some (Fault.Kill { at_beat = k; permanent = true; _ }) when k <= last -> false
    | _ -> true
  in
  let schedules =
    Array.mapi
      (fun n sched ->
        if idles_after_finish n && sched <> [] then
          let l = List.fold_left max 0 sched in
          sched @ range (l + 1) horizon
        else sched)
      schedules
  in
  let det = Detector.create ~nodes:m ~suspect_after:sa in
  let deaths = Array.make m None in
  for beat = 0 to horizon do
    Array.iteri
      (fun n sched -> if List.mem beat sched then Detector.heartbeat det ~node:n ~beat)
      schedules;
    List.iter (fun n -> deaths.(n) <- Some beat) (Detector.tick det ~beat)
  done;
  (* Where a dead node's execution is fenced: kills halt where they
     struck; uplink deaths fence at the declaration window (the node
     kept computing, but its authority ends where the fleet cut it off);
     stragglers fence at the window they had reached by declaration. *)
  let fence n =
    match (deaths.(n), event_of.(n)) with
    | None, _ -> None
    | Some _, Some (Fault.Kill { at_beat = k; _ }) -> Some (min k last)
    | Some d, Some (Fault.Uplink_partition _) -> if d <= last then Some d else None
    | Some d, Some (Fault.Straggle { factor; _ }) ->
        let h = int_of_float (float_of_int d /. factor) in
        if h < last then Some h else None
    | Some _, None -> assert false (* a fully-scheduled node cannot die *)
  in
  let halt_of n =
    match event_of.(n) with
    | Some (Fault.Kill { at_beat = k; _ }) when k <= last -> Some k
    | _ -> fence n
  in
  (* Survivor policy: lowest-id edge that is never declared dead and has
     no kill of its own this run (a crashed-and-recovered edge is not
     entrusted with extra partitions).  Slow or blipped-but-alive edges
     are eligible. *)
  let eligible e =
    deaths.(e) = None
    && match event_of.(e) with Some (Fault.Kill _) -> false | _ -> true
  in
  let survivor_for p d =
    let rec find e =
      if e >= m then raise (No_survivor { partition = p; beat = d })
      else if e <> p && eligible e then e
      else find (e + 1)
    in
    find 0
  in
  (* ---- execution ---- *)
  let reg = M.create () in
  let scope e = M.scoped reg (Printf.sprintf "edge%d" e) in
  let key = cfg.R.dp_config.D.egress_key in
  let fates = Array.make m Ran in
  let handoffs = ref [] in
  let edge_chains = Array.make m [] in
  let merged = ref [] in
  let replayed = ref 0 in
  let vt_max = ref 0. in
  let scale n =
    match event_of.(n) with Some (Fault.Straggle { factor; _ }) -> factor | _ -> 1.0
  in
  for p = 0 to m - 1 do
    let node = R.Node.create ~ckpt_every cfg pipe parts.(p) in
    let attribute e segs = edge_chains.(e) <- (p, segs) :: edge_chains.(e) in
    let ship n = merged := List.rev_append (List.rev_map (fun (w, s) -> (w, p, s)) (R.Node.results n)) !merged in
    (match halt_of p with
    | None ->
        let (_ : R.Node.outcome) = R.Node.boot ~registry:(scope p) node in
        attribute p (R.Node.epochs node)
    | Some h -> (
        match R.Node.boot ~registry:(scope p) ~halt_after_window:h node with
        | R.Node.Completed ->
            (* stream ended before the halt boundary; nothing to recover *)
            attribute p (R.Node.epochs node);
            (match deaths.(p) with
            | Some d -> fates.(p) <- Dead { declared_at = d; fenced_window = None; recipient = None }
            | None -> ())
        | R.Node.Halted _ -> (
            match deaths.(p) with
            | None ->
                (* transient crash: the same edge reboots from its own
                   durable checkpoint before suspicion matures *)
                let (_ : R.Node.outcome) = R.Node.boot ~registry:(scope p) node in
                fates.(p) <- Recovered { halted_at = h; resumed_beat = h + ra };
                attribute p (R.Node.epochs node)
            | Some d ->
                let s = survivor_for p d in
                fates.(p) <- Dead { declared_at = d; fenced_window = Some h; recipient = Some s };
                if rogue_handoff then begin
                  (* adversarial failover: the survivor re-runs the
                     partition from scratch and discards the paperwork —
                     two epoch-0 chains whose overlap the fleet verifier
                     must flag *)
                  let rogue = R.Node.create ~ckpt_every cfg pipe parts.(p) in
                  let (_ : R.Node.outcome) = R.Node.boot ~registry:(scope s) rogue in
                  attribute p (R.Node.epochs node);
                  attribute s (R.Node.epochs rogue);
                  merged :=
                    List.rev_append
                      (List.rev_map (fun (w, sr) -> (w, p, sr)) (R.Node.results rogue))
                      !merged;
                  replayed := !replayed + R.Node.replayed_frames rogue;
                  vt_max := Float.max !vt_max (R.Node.vt_ns rogue)
                end
                else begin
                  (* attested handoff: the survivor adopts the dead
                     edge's store and replay buffer, resumes from the
                     last acknowledged checkpoint, and the handoff
                     manifest binds the resume coordinates its first
                     epoch must repeat *)
                  let e_d = R.Node.epoch_count node in
                  let cursor = R.Node.acked_frames node in
                  let (_ : R.Node.outcome) = R.Node.boot ~registry:(scope s) node in
                  let first_m = List.nth (R.Node.manifests node) e_d in
                  let manifest =
                    {
                      H.partition = p;
                      donor = p;
                      donor_epoch = e_d - 1;
                      recipient = s;
                      resume_ckpt = first_m.E.resumed_from;
                      resume_cursor = cursor;
                      resume_batch_seq = first_m.E.resume_batch_seq;
                    }
                  in
                  handoffs := (manifest, H.seal ~key manifest) :: !handoffs;
                  let eps = R.Node.epochs node in
                  attribute p (List.filteri (fun i _ -> i < e_d) eps);
                  attribute s (List.filteri (fun i _ -> i >= e_d) eps)
                end)));
    ship node;
    replayed := !replayed + R.Node.replayed_frames node;
    vt_max := Float.max !vt_max (R.Node.vt_ns node *. scale p)
  done;
  (* ---- cloud-side combiner: canonical (window, partition) order ---- *)
  let merged =
    List.stable_sort
      (fun (w1, p1, _) (w2, p2, _) -> if w1 <> w2 then compare w1 w2 else compare p1 p2)
      (List.rev !merged)
  in
  let uplink_bytes =
    List.fold_left
      (fun acc (_, _, s) -> acc + Bytes.length s.D.cipher + Bytes.length s.D.tag + 24)
      0 merged
  in
  let uplink_ns = Sbt_net.Link.transfer_ns Sbt_net.Link.uplink ~bytes_len:uplink_bytes in
  let death_count = Array.fold_left (fun acc d -> if d = None then acc else acc + 1) 0 deaths in
  let handoffs = List.rev !handoffs in
  (* ---- fleet verification ---- *)
  let spec = P.verifier_spec pipe in
  let edges = List.init m (fun e -> { V.edge = e; chains = List.rev edge_chains.(e) }) in
  let report =
    V.verify_fleet ~key spec ~partitions:m ~windows:w_total ~edges
      ~handoffs:(List.map snd handoffs)
  in
  M.add (M.counter reg "fleet.deaths") death_count;
  M.add (M.counter reg "fleet.handoffs_sealed") (List.length handoffs);
  M.add (M.counter reg "fleet.suspicions_raised") (Detector.suspicions_raised det);
  M.add (M.counter reg "fleet.suspicions_cleared") (Detector.suspicions_cleared det);
  M.add (M.counter reg "fleet.fenced_heartbeats") (Detector.fenced_heartbeats det);
  M.add (M.counter reg "fleet.replayed_frames") !replayed;
  M.add (M.counter reg "fleet.uplink_bytes") uplink_bytes;
  {
    nodes = m;
    windows = w_total;
    merged;
    report;
    edges;
    handoffs;
    fates;
    deaths = death_count;
    suspicions_raised = Detector.suspicions_raised det;
    suspicions_cleared = Detector.suspicions_cleared det;
    fenced_heartbeats = Detector.fenced_heartbeats det;
    replayed_frames = !replayed;
    total_events;
    makespan_ns = !vt_max +. uplink_ns;
    uplink_bytes;
    registry = reg;
  }
