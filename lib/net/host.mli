(** A host is a virtual machine attached to an edge switch and owned by a
    tenant. The MAC and IP are derived deterministically from the host id
    so tables can be reconstructed from ids in tests. *)

type t = {
  id : Ids.Host_id.t;
  mac : Mac.t;
  ip : Ipv4.t;
  tenant : Ids.Tenant_id.t;
}

val make : id:Ids.Host_id.t -> tenant:Ids.Tenant_id.t -> t
(** Derives [mac] via {!Mac.of_host_id} and [ip] via {!Ipv4.of_host_id}. *)

val compare : t -> t -> int
(** By id. *)

val equal : t -> t -> bool
