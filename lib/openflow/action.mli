(** Forwarding actions attached to flow-table entries.

    [Encap] is the paper's OpenFlow v1.0 extension: wrap the frame in a
    GRE-like header addressed to a remote edge switch's underlay endpoint
    and send it over the core. *)

open Lazyctrl_net

type t =
  | Deliver of Ids.Host_id.t  (** output on the local port of a host *)
  | Encap of Ipv4.t           (** tunnel to a remote switch's underlay IP *)
  | Flood_local               (** all local host ports (tenant-filtered by the datapath) *)
  | To_controller             (** punt via Packet_in on the control link *)
  | Drop
