(** The two TrustZone worlds.

    TrustZone logically partitions the platform into a normal (insecure)
    world running the commodity OS and the control plane, and a secure
    world running the TEE with the StreamBox-TZ data plane.  Every checked
    resource (DRAM regions, peripherals, SMC entries) is tagged with the
    world allowed to touch it. *)

type t = Normal | Secure

val equal : t -> t -> bool
val to_string : t -> string
