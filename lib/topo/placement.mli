(** Multi-tenant VM placement generator.

    Implements the workload assumptions of §II: tenants of modest, stable
    size (20–100 VMs, as reported for EC2 [1]) whose VMs show rack
    affinity — each tenant's VMs are placed on a small set of "home"
    switches with occasional strays, which is what makes switch grouping
    by traffic locality effective. *)


type spec = {
  n_switches : int;
  n_tenants : int;
  tenant_size_min : int;   (** inclusive *)
  tenant_size_max : int;   (** inclusive *)
  racks_per_tenant : int;  (** home switches per tenant *)
  stray_fraction : float;  (** fraction of VMs placed off the home racks *)
}

val default : spec
(** 272 switches, 120 tenants of 20–100 VMs on 4 home racks, 5% strays —
    calibrated to the paper's real-trace scale (~6.5k hosts). *)

val scaled : factor:int -> spec -> spec
(** Multiply switch and tenant counts (the paper's ×10 synthetic scale-up:
    2713 switches is [scaled ~factor:10] of 272 rounded up by one). *)

val generate :
  ?contiguous:bool -> rng:Lazyctrl_util.Prng.t -> spec -> Topology.t
(** Host ids are dense in [0..n-1]; tenant ids dense in
    [0..n_tenants-1]. With [contiguous] (the default), each tenant's home
    racks are a contiguous segment of the switch row — the allocation
    locality placement systems aim for, without which switch-level
    traffic affinity (and hence grouping) largely disappears. *)
