(* Multi-tenant enclave: one TEE serving several tenant pipelines at
   once — the paper's consolidation argument (one enclave, minimal
   crossings) taken to N tenants, the opposite design point from
   per-stage-enclave systems.

   Four small tenants share the enclave: two taxi fleets (top-k /
   distinct counting) and two power districts (per-house aggregation),
   one of them under a deliberately tight secure-DRAM quota.  The
   over-budget tenant sheds and degrades *alone* — its loss is declared
   in its own signed audit sub-stream, its co-tenants' verdicts stay
   clean, and every tenant's sealed results are byte-identical to what
   a solo run of that tenant would produce.

   Run with: dune exec examples/multi_tenant.exe *)

module B = Sbt_workloads.Benchmarks
module Session = Sbt_core.Session
module Runtime = Sbt_core.Runtime
module V = Sbt_attest.Verifier

let () =
  print_endline "== StreamBox-TZ multi-tenant enclave: 4 pipelines, one TEE ==";
  let cfg = Sbt_core.Runtime.Config.make ~cores:4 () in
  let tenant name i =
    match B.mix ~windows:2 ~events_per_window:10_000 ~batch_events:2_500 name i with
    | Some b -> b
    | None -> failwith "unknown mix"
  in
  let add ?quota_pages b s =
    Session.add_tenant ?quota_pages ~pipeline:b.B.pipeline ~source:(B.frames b) s
  in
  (* tenants 0-1: taxi fleets; tenant 2: a power district; tenant 3: a
     power district squeezed into a 96-page (384 KiB) secure quota. *)
  let result =
    Session.create cfg
    |> add (tenant "taxi" 0)
    |> add (tenant "taxi" 1)
    |> add (tenant "power" 0)
    |> add ~quota_pages:96 (tenant "power" 1)
    |> Session.run
  in
  Printf.printf "aggregate: %d events, %.2f M events/s, p99 tenant delay %.2f ms\n"
    result.Session.agg_events
    (result.Session.agg_events_per_sec /. 1e6)
    (result.Session.p99_delay_ns /. 1e6);
  List.iter
    (fun tr ->
      let run = tr.Session.tr_run in
      Printf.printf
        "tenant %d: %d events | %d window(s) | %d shed(s) | max delay %.2f ms\n"
        tr.Session.tr_id run.Runtime.total_events
        (List.length run.Runtime.results)
        run.Runtime.dp_stats.Sbt_core.Dataplane.sheds
        (tr.Session.tr_max_delay_ns /. 1e6))
    result.Session.tenants;
  (* Per-tenant verdicts: each audit sub-stream is MAC'd under a key
     derived from the tenant id and judged independently — the
     quota-squeezed tenant is DEGRADED (declared loss), the rest OK. *)
  Format.printf "%a" V.pp_tenants_report result.Session.report
