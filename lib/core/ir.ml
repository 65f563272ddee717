(* Typed pipeline IR (PR 7).  The control plane lowers a declared
   pipeline's per-batch stages into a flat node list, then the fusion pass
   collapses maximal runs of adjacent per-record primitives into chains.
   The IR is deliberately tiny: batch stages are a straight line
   (1-in/1-out by construction), so fusion is a single left-to-right
   sweep with two barriers — non-fusable ops and the window boundary. *)

module D = Dataplane
module P = Sbt_prim.Primitive

type step = P.t * D.param list
type node = N_invoke of step list | N_window

let step_of_op = function
  | Pipeline.B_sort { key_field; secondary_value } ->
      let p = [ D.P_key_field key_field ] in
      (P.Sort, match secondary_value with Some v -> D.P_value_field v :: p | None -> p)
  | Pipeline.B_filter_band { field; lo; hi } ->
      (P.Filter_band, [ D.P_value_field field; D.P_lo lo; D.P_hi hi ])
  | Pipeline.B_project fields -> (P.Project, [ D.P_fields fields ])
  | Pipeline.B_select { field; value } -> (P.Select, [ D.P_value_field field; D.P_lo value ])
  | Pipeline.B_shift_key { field; shift } -> (P.Shift_key, [ D.P_key_field field; D.P_shift shift ])

let lower (p : Pipeline.t) =
  List.map (fun op -> N_invoke [ step_of_op op ]) p.Pipeline.batch_ops @ [ N_window ]

(* Greedy maximal-run fusion.  A run of >= 2 consecutive single fusable
   steps becomes one chain; a lone fusable op already costs exactly one
   switch, so it stays as it is.  Chains and N_window are barriers and
   pass through untouched, which makes the pass idempotent: a second sweep
   finds no adjacent fusable pair it did not already absorb. *)
let fuse nodes =
  let flush acc run = match run with [] -> acc | _ -> N_invoke (List.rev run) :: acc in
  let rec go acc run = function
    | [] -> List.rev (flush acc run)
    | N_invoke [ ((op, _) as s) ] :: rest when P.fusable op -> go acc (s :: run) rest
    | n :: rest -> go (n :: flush acc run) [] rest
  in
  go [] [] nodes

let switch_count nodes =
  List.length (List.filter (function N_invoke _ -> true | N_window -> false) nodes)

let pp_node fmt = function
  | N_invoke [ (op, _) ] -> Format.fprintf fmt "%s" (P.name op)
  | N_invoke steps ->
      Format.fprintf fmt "fused[%s]" (String.concat ";" (List.map (fun (op, _) -> P.name op) steps))
  | N_window -> Format.fprintf fmt "|window|"

let pp fmt nodes =
  Format.fprintf fmt "%s"
    (String.concat " -> " (List.map (Format.asprintf "%a" pp_node) nodes))
