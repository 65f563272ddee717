(* The accumulator h and the clamped key r are five 26-bit limbs on native
   ints (the poly1305-donna-32 layout).  A product limb is at most five
   terms below 2^27 · 5 · 2^26, under 2^58, so a block costs 25 products
   and one carry chain, with no allocation and no overflow. *)

type key = { r0 : int; r1 : int; r2 : int; r3 : int; r4 : int }
type state = { k : key; h : int array (* five limbs *) }

let mask26 = 0x3ffffff
let get32 b off = Int32.to_int (Bytes.get_int32_le b off) land 0xFFFFFFFF

(* The clamp (RFC 8439 §2.5.1) folded into the limb split. *)
let key b off =
  let t0 = get32 b off and t1 = get32 b (off + 4) in
  let t2 = get32 b (off + 8) and t3 = get32 b (off + 12) in
  {
    r0 = t0 land 0x3ffffff;
    r1 = ((t0 lsr 26) lor (t1 lsl 6)) land 0x3ffff03;
    r2 = ((t1 lsr 20) lor (t2 lsl 12)) land 0x3ffc0ff;
    r3 = ((t2 lsr 14) lor (t3 lsl 18)) land 0x3f03fff;
    r4 = (t3 lsr 8) land 0x00fffff;
  }

let init k = { k; h = Array.make 5 0 }

(* h = (h + block + hibit) · r mod 2^130 − 5 for [n] 16-byte blocks from
   [off]; [hibit] is 2^128 in limb 4 (1 lsl 24) for every block but a
   message's short last one. *)
let blocks st ~hibit buf off n =
  let { r0; r1; r2; r3; r4 } = st.k and h = st.h in
  let s1 = r1 * 5 and s2 = r2 * 5 and s3 = r3 * 5 and s4 = r4 * 5 in
  let h0 = ref h.(0) and h1 = ref h.(1) and h2 = ref h.(2) and h3 = ref h.(3) and h4 = ref h.(4) in
  for i = 0 to n - 1 do
    let o = off + (16 * i) in
    let t0 = get32 buf o and t1 = get32 buf (o + 4) in
    let t2 = get32 buf (o + 8) and t3 = get32 buf (o + 12) in
    let a0 = !h0 + (t0 land mask26) in
    let a1 = !h1 + (((t0 lsr 26) lor (t1 lsl 6)) land mask26) in
    let a2 = !h2 + (((t1 lsr 20) lor (t2 lsl 12)) land mask26) in
    let a3 = !h3 + (((t2 lsr 14) lor (t3 lsl 18)) land mask26) in
    let a4 = !h4 + ((t3 lsr 8) lor hibit) in
    let d0 = (a0 * r0) + (a1 * s4) + (a2 * s3) + (a3 * s2) + (a4 * s1) in
    let d1 = (a0 * r1) + (a1 * r0) + (a2 * s4) + (a3 * s3) + (a4 * s2) + (d0 lsr 26) in
    let d2 = (a0 * r2) + (a1 * r1) + (a2 * r0) + (a3 * s4) + (a4 * s3) + (d1 lsr 26) in
    let d3 = (a0 * r3) + (a1 * r2) + (a2 * r1) + (a3 * r0) + (a4 * s4) + (d2 lsr 26) in
    let d4 = (a0 * r4) + (a1 * r3) + (a2 * r2) + (a3 * r1) + (a4 * r0) + (d3 lsr 26) in
    let c0 = (d0 land mask26) + ((d4 lsr 26) * 5) in
    h0 := c0 land mask26;
    h1 := (d1 land mask26) + (c0 lsr 26);
    h2 := d2 land mask26;
    h3 := d3 land mask26;
    h4 := d4 land mask26
  done;
  Array.iteri (fun i v -> h.(i) <- v) [| !h0; !h1; !h2; !h3; !h4 |]

(* [len] bytes from [off] as whole blocks, the short last one
   zero-padded: RFC 8439 §2.8's [pad16]. *)
let pad16 st buf off len =
  if len < 0 || off < 0 || off + len > Bytes.length buf then invalid_arg "Poly1305.pad16";
  let full = len / 16 and rest = len mod 16 in
  blocks st ~hibit:(1 lsl 24) buf off full;
  if rest > 0 then begin
    let last = Bytes.make 16 '\000' in
    Bytes.blit buf (off + (16 * full)) last 0 rest;
    blocks st ~hibit:(1 lsl 24) last 0 1
  end

(* Bring every limb below 2^26 and return what leaves the top one. *)
let carry h =
  let c = ref 0 in
  for i = 0 to 4 do
    let v = h.(i) + !c in
    h.(i) <- v land mask26;
    c := v lsr 26
  done;
  !c

let finish st =
  let h = Array.copy st.h in
  (* 2^130 ≡ 5: what leaves the top re-enters the bottom times 5. *)
  let rec reduce () =
    let c = carry h in
    if c > 0 then begin
      h.(0) <- h.(0) + (5 * c);
      reduce ()
    end
  in
  reduce ();
  (* h ≥ p exactly when h + 5 reaches 2^130, and h − p is then its low
     130 bits. *)
  let g = Array.copy h in
  g.(0) <- g.(0) + 5;
  let h = if carry g > 0 then g else h in
  (* h mod 2^128, word by word. *)
  let f0 = h.(0) + (h.(1) lsl 26) in
  let f1 = (f0 lsr 32) + (h.(2) lsl 20) in
  let f2 = (f1 lsr 32) + (h.(3) lsl 14) in
  let f3 = (f2 lsr 32) + (h.(4) lsl 8) in
  let out = Bytes.create 16 in
  List.iteri (fun i f -> Bytes.set_int32_le out (4 * i) (Int32.of_int f)) [ f0; f1; f2; f3 ];
  out
