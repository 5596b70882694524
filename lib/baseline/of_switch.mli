(** The comparison data plane: a plain OpenFlow v1.0 edge switch.

    No L-FIB, no G-FIB, no peer state — every decision comes from the
    flow table, and a table miss punts the packet to the controller, as in
    the paper's "standard OpenFlow control" runs. The only local knowledge
    is the physical port map (which hosts are plugged in), used to realize
    output and flood actions and last-hop delivery of encapsulated
    frames. *)

open Lazyctrl_net
open Lazyctrl_sim
open Lazyctrl_openflow

type msg = unit Message.t
(** Baseline messages carry no protocol extensions. *)

type env = {
  engine : Engine.t;
  send_controller : msg -> unit;
  send_underlay : Packet.t -> unit;
  deliver_local : Host.t list -> Packet.t -> unit;
      (** One output action's host ports: a flood passes every target in
          ascending mac order, a unicast output one host. A flood whose
          sender is not attached here reaches every attached host, so it
          passes the switch's cached host list itself: one immutable
          list shared by those floods, rebuilt after an attach or
          detach. *)
  underlay_ip : Ipv4.t;
}

type stats = {
  packets_from_hosts : int;
  packets_delivered : int;
  encap_sent : int;
  flow_table_handled : int;
  punted : int;
}

type t

val create : env -> flow_table_capacity:int -> t
val attach_host : t -> Host.t -> unit
val detach_host : t -> Host.t -> unit
val handle_from_host : t -> Host.t -> Packet.t -> unit
val handle_underlay : t -> Packet.t -> unit
val handle_controller_message : t -> msg -> unit

val buffer_stats : t -> Buffer_pool.stats
(** Occupancy counters of the packet buffer behind buffered table-miss
    punts (64 slots, 1 s ttl — fixed in the baseline plane). *)

val stats : t -> stats
