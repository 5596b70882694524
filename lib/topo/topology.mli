(** Static network description: edge switches, tenants, and host (VM)
    attachment, with support for migration.

    The network core is abstracted away (core–edge separation): all that
    matters to the control plane is which edge switch each host sits
    behind, so a topology is essentially the host-to-switch mapping plus
    tenant ownership, indexed every way the control plane needs. *)

open Lazyctrl_net

type t

val create : n_switches:int -> t
(** Switches are [sw0 .. sw(n-1)], each with underlay endpoint
    {!Ipv4.of_switch_id}. @raise Invalid_argument if [n_switches <= 0]. *)

val n_switches : t -> int
val switches : t -> Ids.Switch_id.t list
val underlay_ip : t -> Ids.Switch_id.t -> Ipv4.t

val add_host : t -> Host.t -> at:Ids.Switch_id.t -> unit
(** @raise Invalid_argument if the host id is already present. *)

val n_hosts : t -> int
val hosts : t -> Host.t list
val host : t -> Ids.Host_id.t -> Host.t
(** @raise Not_found *)

val location : t -> Ids.Host_id.t -> Ids.Switch_id.t
(** @raise Not_found *)

val hosts_at : t -> Ids.Switch_id.t -> Host.t list

val migrate : t -> Ids.Host_id.t -> to_:Ids.Switch_id.t -> Ids.Switch_id.t
(** Returns the previous location. @raise Not_found for an unknown host. *)

val tenants : t -> Ids.Tenant_id.t list
val tenant_hosts : t -> Ids.Tenant_id.t -> Host.t list
val tenant_switches : t -> Ids.Tenant_id.t -> Ids.Switch_id.t list
(** Switches currently hosting at least one VM of the tenant. *)

val vlan_of_tenant : Ids.Tenant_id.t -> int
(** Deterministic 802.1Q tag for a tenant (12-bit space, wraps). *)

