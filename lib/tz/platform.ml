type t = {
  cores : int;
  tzasc : Tzasc.t;
  tzpc : Tzpc.t;
  cost : Cost_model.t;
  mutable world : World.t;
  mutable switch_pairs : int;
  mutable modeled_switch_ns : float;
  mutable modeled_copy_ns : float;
}

let dram_mb = 2048

let create ?(cores = 8) ?(cost = Cost_model.default) ?(secure_mb = 512) () =
  let tzasc = Tzasc.create () in
  let mb = 1024 * 1024 in
  Tzasc.add_region tzasc ~name:"secure-dram" ~bytes_len:(secure_mb * mb) ~world:World.Secure;
  Tzasc.add_region tzasc ~name:"normal-dram"
    ~bytes_len:((dram_mb - secure_mb) * mb)
    ~world:World.Normal;
  let tzpc = Tzpc.create () in
  Tzpc.assign tzpc ~name:"net0" ~world:World.Secure;
  Tzpc.assign tzpc ~name:"usb-eth" ~world:World.Normal;
  {
    cores;
    tzasc;
    tzpc;
    cost;
    world = World.Normal;
    switch_pairs = 0;
    modeled_switch_ns = 0.0;
    modeled_copy_ns = 0.0;
  }

let enter_secure t =
  match t.world with
  | World.Secure -> invalid_arg "Platform.enter_secure: already in secure world"
  | World.Normal -> t.world <- World.Secure

let exit_secure t =
  match t.world with
  | World.Normal -> invalid_arg "Platform.exit_secure: not in secure world"
  | World.Secure ->
      t.world <- World.Normal;
      t.switch_pairs <- t.switch_pairs + 1;
      t.modeled_switch_ns <- t.modeled_switch_ns +. t.cost.Cost_model.world_switch_ns

let charge_copy t ~bytes_len =
  t.modeled_copy_ns <-
    t.modeled_copy_ns +. (float_of_int bytes_len *. t.cost.Cost_model.copy_ns_per_byte)

let reset_accounting t =
  t.switch_pairs <- 0;
  t.modeled_switch_ns <- 0.0;
  t.modeled_copy_ns <- 0.0

let secure_bytes t = Tzasc.secure_bytes t.tzasc
