(** The modeled edge platform: cores, TZASC, TZPC, cost model, and the
    world-switch accounting that the engine converts into virtual time.

    One [Platform.t] underlies one engine instance.  All mutation funnels
    through {!Smc}, which is the only sanctioned way to cross worlds. *)

type t = {
  cores : int;
  tzasc : Tzasc.t;
  tzpc : Tzpc.t;
  cost : Cost_model.t;
  mutable world : World.t;  (** world of the core executing the model *)
  mutable switch_pairs : int;  (** completed TEE entry/exit pairs *)
  mutable modeled_switch_ns : float;  (** accumulated virtual switch cost *)
  mutable modeled_copy_ns : float;  (** accumulated virtual boundary-copy cost *)
}

val create : ?cores:int -> ?cost:Cost_model.t -> ?secure_mb:int -> unit -> t
(** [create ()] models the paper's HiKey: 8 cores, 2 GB DRAM split into a
    ["secure-dram"] region ([secure_mb], default 512 MB) and a
    ["normal-dram"] region, plus a secure ["net0"] peripheral (trusted IO)
    and a normal ["usb-eth"] peripheral. *)

val enter_secure : t -> unit
(** Model a TEE entry; no cost is charged until the matching {!exit_secure}
    completes the pair.  Raises [Invalid_argument] if already secure. *)

val exit_secure : t -> unit
(** Complete the entry/exit pair: increments [switch_pairs] and charges
    [cost.world_switch_ns] to [modeled_switch_ns]. *)

val charge_copy : t -> bytes_len:int -> unit
(** Charge a boundary copy of [bytes_len] bytes to [modeled_copy_ns]. *)

val reset_accounting : t -> unit
val secure_bytes : t -> int
