(** Central Location Information Base (§III-B2, §IV-B).

    The controller's copy of every switch's L-FIB, assembled from the
    designated switches' state reports. Indexed by MAC, IP, tenant and
    switch so the controller can set up inter-group flows, relay ARP
    within a tenant's scope, and re-seed a group's state after
    regrouping or switch recovery. *)

open Lazyctrl_net
open Lazyctrl_switch

type t

val create : unit -> t

val apply_delta : t -> Proto.lfib_delta -> unit
(** Incremental or full-row update from a state report. A full delta
    goes through {!set_row}, except that one listing, in ascending MAC
    order, exactly the keys the switch's row holds, each also placed at
    that switch by the MAC and IP indexes, is a no-op: the rebuild would
    put back what it takes out. A list that repeats a MAC or is out of
    MAC order always rebuilds. *)

val set_row : t -> Ids.Switch_id.t -> Proto.host_key list -> unit

val row : t -> Ids.Switch_id.t -> Proto.host_key list
(** The known L-FIB of a switch (empty when unknown). *)

val locate_mac : t -> Mac.t -> Ids.Switch_id.t option
val locate_ip : t -> Ipv4.t -> (Ids.Switch_id.t * Proto.host_key) option

val tenant_of_mac : t -> Mac.t -> Ids.Tenant_id.t option

val switches_of_tenant : t -> Ids.Tenant_id.t -> Ids.Switch_id.t list
(** Switches currently hosting at least one VM of the tenant — the scope
    of cross-group ARP relays. *)

val n_entries : t -> int
