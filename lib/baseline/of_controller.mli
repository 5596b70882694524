(** The comparison control plane: a Floodlight-style reactive learning
    switch controller.

    The controller learns MAC locations from Packet_in source addresses.
    For a known unicast destination it installs a short-lived exact-match
    rule (Floodlight's 5-second idle timeout) on the punting switch and
    re-injects the packet; for broadcast or unknown destinations it floods
    to every switch in the network — the behaviour whose cost §V-E blames
    for standard OpenFlow's cold-cache latency. *)

open Lazyctrl_net
open Lazyctrl_sim

type msg = Of_switch.msg

type env = {
  engine : Engine.t;
  send_switch : Ids.Switch_id.t -> msg -> unit;
  send_switches : Ids.Switch_id.t list -> msg -> unit;
      (** One message to several switches, in list order: what
          [send_switch] does for each, with one shared encoding
          ({!Lazyctrl_openflow.Channel.multicast}). A flood sends its
          [Packet_out] to every switch but the ingress one through it. *)
  n_switches : int;
}

type config = {
  flow_idle_timeout : Time.t; (** default 5 s, as in Floodlight *)
}

val default_config : config

type stats = {
  requests : int;
  packet_ins : int;
  flow_mods_sent : int;
  packet_outs_sent : int;
  buffer_outs_sent : int;
      (** replies that released a parked packet by buffer id (DESIGN.md
          §13) *)
  floods : int;
  learned_macs : int;
}

type t

val create : env -> config -> t

val handle_message : t -> from:Ids.Switch_id.t -> msg -> unit

val locate : t -> Mac.t -> Ids.Switch_id.t option
(** The learned MAC table (for tests). *)

val stats : t -> stats

val set_request_hook : t -> (unit -> unit) -> unit
(** Measurement tap, one call per Packet_in — the Fig. 7 workload
    series for the OpenFlow runs. *)
