(** Temporal-join trusted primitive (sort-merge equi-join).

    Joins two key-sorted inputs on equal keys — the windowed TempJoin
    operator feeds it the two sides of one window.  Output records are
    (key, left value, right value), ordered by key, then left position,
    then right position.  One scan finds each matching key's left and
    right runs ({!runs}); their sizes give the output's exact length, so
    the caller allocates the destination once and {!fill} writes each
    row into reserved space. *)

type runs
(** The matching key runs of two inputs, found in one scan. *)

val runs : left:Sbt_umem.Uarray.t -> right:Sbt_umem.Uarray.t -> key_field:int -> runs
(** Walk both inputs, which must be sorted ascending by [key_field], a
    field of both. *)

val size : runs -> int
(** Number of output records: the sum over matching keys of
    |left run| * |right run|. *)

val fill : runs -> dst:Sbt_umem.Uarray.t -> value_field:int -> unit
(** Append the join's records to [dst], which must be open, width 3, with
    capacity for {!size} more records.  [value_field] must be a field of
    both inputs, and the inputs unchanged since {!runs}. *)
