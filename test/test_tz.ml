(* Tests for the TrustZone platform model: world-switch discipline, TZASC
   DRAM partitioning, TZPC peripheral ownership, the four-entry SMC
   surface, and cost accounting. *)

module Tz = Sbt_tz

let test_world_equal () =
  Alcotest.(check bool) "normal=normal" true (Tz.World.equal Tz.World.Normal Tz.World.Normal);
  Alcotest.(check bool) "normal<>secure" false (Tz.World.equal Tz.World.Normal Tz.World.Secure);
  Alcotest.(check string) "name" "secure" (Tz.World.to_string Tz.World.Secure)

(* --- TZASC ------------------------------------------------------------- *)

let test_tzasc_partition () =
  let t = Tz.Tzasc.create () in
  Tz.Tzasc.add_region t ~name:"sec" ~bytes_len:1024 ~world:Tz.World.Secure;
  Tz.Tzasc.add_region t ~name:"norm" ~bytes_len:2048 ~world:Tz.World.Normal;
  Alcotest.(check int) "secure bytes" 1024 (Tz.Tzasc.secure_bytes t);
  Alcotest.(check int) "region size" 2048 (Tz.Tzasc.region_size t "norm");
  (* The normal world must never touch secure DRAM. *)
  (try
     Tz.Tzasc.check_access t ~accessor:Tz.World.Normal ~region:"sec";
     Alcotest.fail "normal world accessed secure region"
   with Tz.Tzasc.Access_violation _ -> ());
  (* The secure world may read both. *)
  Tz.Tzasc.check_access t ~accessor:Tz.World.Secure ~region:"sec";
  Tz.Tzasc.check_access t ~accessor:Tz.World.Secure ~region:"norm";
  Tz.Tzasc.check_access t ~accessor:Tz.World.Normal ~region:"norm"

let test_tzasc_duplicate_region () =
  let t = Tz.Tzasc.create () in
  Tz.Tzasc.add_region t ~name:"r" ~bytes_len:1 ~world:Tz.World.Normal;
  Alcotest.check_raises "duplicate" (Invalid_argument "Tzasc.add_region: duplicate region r")
    (fun () -> Tz.Tzasc.add_region t ~name:"r" ~bytes_len:1 ~world:Tz.World.Secure)

let test_tzasc_unknown_region () =
  let t = Tz.Tzasc.create () in
  Alcotest.check_raises "unknown" Not_found (fun () -> ignore (Tz.Tzasc.region_world t "x"))

(* --- TZPC -------------------------------------------------------------- *)

let test_tzpc_trusted_io () =
  let t = Tz.Tzpc.create () in
  Tz.Tzpc.assign t ~name:"nic" ~world:Tz.World.Secure;
  Tz.Tzpc.assign t ~name:"usb" ~world:Tz.World.Normal;
  Alcotest.(check bool) "nic is trusted io" true (Tz.Tzpc.is_trusted_io t "nic");
  Alcotest.(check bool) "usb is not" false (Tz.Tzpc.is_trusted_io t "usb");
  (* A secure peripheral is completely enclosed in the secure world. *)
  (try
     Tz.Tzpc.check_access t ~accessor:Tz.World.Normal ~peripheral:"nic";
     Alcotest.fail "normal world accessed trusted io"
   with Tz.Tzpc.Peripheral_violation _ -> ());
  Tz.Tzpc.check_access t ~accessor:Tz.World.Secure ~peripheral:"nic"

(* --- Platform ----------------------------------------------------------- *)

let test_platform_defaults () =
  let p = Tz.Platform.create () in
  Alcotest.(check int) "eight cores" 8 p.Tz.Platform.cores;
  Alcotest.(check int) "512MB secure" (512 * 1024 * 1024) (Tz.Platform.secure_bytes p);
  Alcotest.(check bool) "net0 is trusted io" true (Tz.Tzpc.is_trusted_io p.Tz.Platform.tzpc "net0")

let test_platform_switch_accounting () =
  let p = Tz.Platform.create () in
  Alcotest.(check int) "no switches yet" 0 p.Tz.Platform.switch_pairs;
  Tz.Platform.enter_secure p;
  (* Cost is charged when the pair completes. *)
  Alcotest.(check int) "entry alone not a pair" 0 p.Tz.Platform.switch_pairs;
  Tz.Platform.exit_secure p;
  Alcotest.(check int) "one pair" 1 p.Tz.Platform.switch_pairs;
  Alcotest.(check (float 0.01)) "pair cost charged"
    p.Tz.Platform.cost.Tz.Cost_model.world_switch_ns p.Tz.Platform.modeled_switch_ns

let test_platform_double_enter () =
  let p = Tz.Platform.create () in
  Tz.Platform.enter_secure p;
  Alcotest.check_raises "double enter"
    (Invalid_argument "Platform.enter_secure: already in secure world") (fun () ->
      Tz.Platform.enter_secure p);
  Tz.Platform.exit_secure p;
  Alcotest.check_raises "exit from normal"
    (Invalid_argument "Platform.exit_secure: not in secure world") (fun () ->
      Tz.Platform.exit_secure p)

let test_platform_copy_charge () =
  let p = Tz.Platform.create () in
  Tz.Platform.charge_copy p ~bytes_len:1000;
  Alcotest.(check (float 0.01)) "copy cost"
    (1000.0 *. p.Tz.Platform.cost.Tz.Cost_model.copy_ns_per_byte)
    p.Tz.Platform.modeled_copy_ns;
  Tz.Platform.reset_accounting p;
  Alcotest.(check (float 0.0)) "reset" 0.0 p.Tz.Platform.modeled_copy_ns

(* --- SMC ---------------------------------------------------------------- *)

let test_smc_entry_surface () =
  (* The paper's four entries; fused chains share the invoke entry. *)
  Alcotest.(check int) "exactly four entries" 4 Tz.Smc.entry_count;
  Alcotest.(check (list string))
    "entry names"
    [ "init"; "finalize"; "debug"; "invoke" ]
    (List.map Tz.Smc.entry_name Tz.Smc.[ Init; Finalize; Debug; Invoke ])

let test_smc_dispatch () =
  let p = Tz.Platform.create () in
  let smc : (int, int) Tz.Smc.t = Tz.Smc.create p in
  Tz.Smc.register smc Tz.Smc.Invoke (fun x ->
      (* Handlers run in the secure world. *)
      Alcotest.(check bool) "in secure world" true (Tz.World.equal p.Tz.Platform.world Tz.World.Secure);
      x + 1);
  let r = Tz.Smc.call smc Tz.Smc.Invoke 41 in
  Alcotest.(check int) "result" 42 r;
  Alcotest.(check bool) "back in normal world" true
    (Tz.World.equal p.Tz.Platform.world Tz.World.Normal);
  Alcotest.(check int) "one switch pair" 1 (Tz.Smc.switch_pairs smc)

let test_smc_unregistered () =
  let p = Tz.Platform.create () in
  let smc : (unit, unit) Tz.Smc.t = Tz.Smc.create p in
  Alcotest.check_raises "unregistered" Not_found (fun () -> Tz.Smc.call smc Tz.Smc.Debug ())

let test_smc_duplicate_registration () =
  let p = Tz.Platform.create () in
  let smc : (unit, unit) Tz.Smc.t = Tz.Smc.create p in
  Tz.Smc.register smc Tz.Smc.Init (fun () -> ());
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Smc.register: handler already registered for init") (fun () ->
      Tz.Smc.register smc Tz.Smc.Init (fun () -> ()))

let test_smc_exception_restores_world () =
  let p = Tz.Platform.create () in
  let smc : (unit, unit) Tz.Smc.t = Tz.Smc.create p in
  Tz.Smc.register smc Tz.Smc.Invoke (fun () -> failwith "primitive crashed");
  (try ignore (Tz.Smc.call smc Tz.Smc.Invoke ()) with Failure _ -> ());
  Alcotest.(check bool) "world restored after crash" true
    (Tz.World.equal p.Tz.Platform.world Tz.World.Normal);
  (* And the model is still usable. *)
  Tz.Platform.enter_secure p;
  Tz.Platform.exit_secure p

let test_smc_fault_hook_entry_busy () =
  (* An injected transient refusal: raised before the world switch, so no
     pair is charged, the caller sees Entry_busy, and the normal world
     keeps running. *)
  let p = Tz.Platform.create () in
  let smc : (int, int) Tz.Smc.t = Tz.Smc.create p in
  Tz.Smc.register smc Tz.Smc.Invoke (fun x -> x * 2);
  let refuse = ref true in
  Tz.Smc.set_fault_hook smc (fun entry _ -> !refuse && entry = Tz.Smc.Invoke);
  (try
     ignore (Tz.Smc.call smc Tz.Smc.Invoke 21);
     Alcotest.fail "expected Entry_busy"
   with Tz.Smc.Entry_busy e -> Alcotest.(check string) "entry" "invoke" (Tz.Smc.entry_name e));
  Alcotest.(check int) "refusal counted" 1 (Tz.Smc.busy_rejections smc);
  Alcotest.(check int) "no switch pair charged" 0 (Tz.Smc.switch_pairs smc);
  Alcotest.(check bool) "still in normal world" true
    (Tz.World.equal p.Tz.Platform.world Tz.World.Normal);
  (* Retry after the transient clears. *)
  refuse := false;
  Alcotest.(check int) "retry succeeds" 42 (Tz.Smc.call smc Tz.Smc.Invoke 21);
  Alcotest.(check int) "now one pair" 1 (Tz.Smc.switch_pairs smc);
  Tz.Smc.clear_fault_hook smc;
  refuse := true;
  Alcotest.(check int) "hook cleared" 4 (Tz.Smc.call smc Tz.Smc.Invoke 2)

(* --- Cost model ---------------------------------------------------------- *)

let test_cost_model () =
  let d = Tz.Cost_model.default in
  Alcotest.(check bool) "switch cost positive" true (d.Tz.Cost_model.world_switch_ns > 0.0);
  let f = Tz.Cost_model.free in
  Alcotest.(check (float 0.0)) "free switch" 0.0 f.Tz.Cost_model.world_switch_ns;
  let c = Tz.Cost_model.with_switch_ns 5.0 d in
  Alcotest.(check (float 0.0)) "override" 5.0 c.Tz.Cost_model.world_switch_ns

let () =
  Alcotest.run "tz"
    [
      ("world", [ Alcotest.test_case "equality and names" `Quick test_world_equal ]);
      ( "tzasc",
        [
          Alcotest.test_case "partition rules" `Quick test_tzasc_partition;
          Alcotest.test_case "duplicate region" `Quick test_tzasc_duplicate_region;
          Alcotest.test_case "unknown region" `Quick test_tzasc_unknown_region;
        ] );
      ("tzpc", [ Alcotest.test_case "trusted io" `Quick test_tzpc_trusted_io ]);
      ( "platform",
        [
          Alcotest.test_case "defaults" `Quick test_platform_defaults;
          Alcotest.test_case "switch accounting" `Quick test_platform_switch_accounting;
          Alcotest.test_case "double enter/exit" `Quick test_platform_double_enter;
          Alcotest.test_case "copy charge" `Quick test_platform_copy_charge;
        ] );
      ( "smc",
        [
          Alcotest.test_case "four entries" `Quick test_smc_entry_surface;
          Alcotest.test_case "dispatch" `Quick test_smc_dispatch;
          Alcotest.test_case "unregistered" `Quick test_smc_unregistered;
          Alcotest.test_case "duplicate registration" `Quick test_smc_duplicate_registration;
          Alcotest.test_case "exception restores world" `Quick test_smc_exception_restores_world;
          Alcotest.test_case "fault hook refuses entry" `Quick test_smc_fault_hook_entry_busy;
        ] );
      ("cost-model", [ Alcotest.test_case "defaults and overrides" `Quick test_cost_model ]);
    ]
