type batch = { payload : bytes; tag : bytes; seq : int }

type t = {
  key : bytes;
  flush_every : int;
  mutable pending : Record.t list; (* reversed *)
  mutable pending_count : int;
  mutable seq : int;
  mutable records_produced : int;
}

let create ~key ~flush_every =
  if flush_every <= 0 then invalid_arg "Log.create: flush_every must be positive";
  {
    key;
    flush_every;
    pending = [];
    pending_count = 0;
    seq = 0;
    records_produced = 0;
  }

let flush t =
  match t.pending with
  | [] -> None
  | _ :: _ ->
      let records = List.rev t.pending in
      t.pending <- [];
      t.pending_count <- 0;
      let body = Columnar.compress records in
      (* The sequence number is authenticated together with the payload. *)
      let seq_prefix = Bytes.create 4 in
      for i = 0 to 3 do
        Bytes.set seq_prefix i (Char.unsafe_chr ((t.seq lsr (8 * i)) land 0xFF))
      done;
      let payload = Bytes.cat seq_prefix body in
      let tag = Sbt_crypto.Hmac.mac ~key:t.key payload in
      let b = { payload; tag; seq = t.seq } in
      t.seq <- t.seq + 1;
      Some b

let append t r =
  t.pending <- r :: t.pending;
  t.pending_count <- t.pending_count + 1;
  t.records_produced <- t.records_produced + 1;
  if t.pending_count >= t.flush_every then flush t else None

let open_batch ~key b =
  if not (Sbt_crypto.Hmac.verify ~key ~tag:b.tag b.payload) then
    invalid_arg "Log.open_batch: MAC verification failed";
  let seq = ref 0 in
  for i = 3 downto 0 do
    seq := (!seq lsl 8) lor Char.code (Bytes.get b.payload i)
  done;
  if !seq <> b.seq then invalid_arg "Log.open_batch: sequence number mismatch";
  Columnar.decompress (Bytes.sub b.payload 4 (Bytes.length b.payload - 4))

let records_produced t = t.records_produced
let seq t = t.seq

let restore_cursor t ~seq ~records_produced =
  if t.pending_count > 0 then invalid_arg "Log.restore_cursor: pending records";
  if seq < 0 || records_produced < 0 then invalid_arg "Log.restore_cursor: negative cursor";
  t.seq <- seq;
  t.records_produced <- records_produced
