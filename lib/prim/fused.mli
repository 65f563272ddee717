(** Fused super-kernel descriptors.

    A fused chain is an ordered list of stateless per-record primitives
    (band filter, equality select, projection, key shift) executed by one
    kernel ({!run}) behind one call of the shared invoke entry, instead
    of one SMC round trip per primitive.  The chain descriptor is the
    argument of that call and — encoded with {!encode_steps} — the
    parameter blob of the composite audit record the execution emits.

    Chain semantics are defined by the unfused primitives they collapse:
    running the steps left-to-right over each record, dropping it at the
    first failing filter/select, must produce output byte-identical to
    invoking {!Filter.filter_band}, {!Filter.select_eq}, {!Misc.project}
    and {!Misc.shift_key} in sequence over whole batches. *)

type step =
  | F_filter_band of { field : int; lo : int32; hi : int32 }
      (** keep records with [lo <= field <= hi] (signed compare, as
          {!Filter.filter_band}) *)
  | F_select of { field : int; value : int32 }  (** keep records with [field = value] *)
  | F_project of { fields : int array }
      (** re-emit the record as [fields] (reorder / narrow / duplicate);
          subsequent steps see the projected width *)
  | F_shift_key of { field : int; shift : int }
      (** arithmetic right-shift of one field, as {!Misc.shift_key} *)

val step_op : step -> Primitive.t
(** The unfused primitive a step stands for. *)

val width_after : int -> step list -> int option
(** [width_after w steps] is the record width after the whole chain runs
    over width-[w] input, or [None] if any step references a field outside
    the width it would actually see (or an invalid shift) — the validity
    check a fused plan must pass before it executes. *)

val run :
  steps:step list ->
  src:Sbt_umem.Uarray.t ->
  alloc:(int -> Sbt_umem.Uarray.t) ->
  Sbt_umem.Uarray.t
(** [run ~steps ~src ~alloc] executes the chain over [src] and returns
    the output array.  A first pass runs the chain on every record and
    marks the survivors; [alloc kept] is then called once with the exact
    survivor count and must return an open array of the chain's output
    width; a second pass appends the survivors' output rows to it, in
    input order.  Raises [Invalid_argument] if the chain does not fit
    [src]'s width ({!width_after}) or the allocated array's width is
    wrong. *)

val encode_steps : step list -> bytes
(** Canonical byte encoding of a chain (at most 255 steps).  Injective:
    equal encodings mean equal chains, which is what the composite audit
    record's chain hash signs. *)

val decode_steps : bytes -> step list option
(** Inverse of {!encode_steps}; [None] on any malformed or trailing
    bytes. *)
