(** The LazyCtrl central controller (§III-B2, §IV-B).

    Responsibilities, exactly the paper's list: maintain the C-LIB from
    designated switches' state reports; manage the grouping of edge
    switches with SGI (initial grouping plus the background incremental
    daemon, triggered by ≥30% workload growth and rate-limited to one
    update per two minutes); set up flow rules for inter-group traffic and
    relay cross-group ARP within the tenant's scope; and run failure
    detection/failover over the wheel. *)

open Lazyctrl_net
open Lazyctrl_sim
open Lazyctrl_graph
open Lazyctrl_openflow
open Lazyctrl_switch
module Prng = Lazyctrl_util.Prng

type msg = Proto.t Message.t

type env = {
  engine : Engine.t;
  send_switch : Ids.Switch_id.t -> msg -> unit;  (** control links, downstream *)
  reboot_switch : Ids.Switch_id.t -> unit;
      (** remote management action for §III-E3 switch failover *)
  request_relay : Ids.Switch_id.t -> via:Ids.Switch_id.t option -> unit;
      (** control-link failover: tell a switch to route its control
          traffic through a ring neighbour (§III-E2) *)
  rng : Prng.t;
}

type config = {
  group_size_limit : int;
  sync_period : Time.t;        (** handed to switches in [Group_config] *)
  keepalive_period : Time.t;
  echo_period : Time.t;        (** controller → switch liveness probes *)
  echo_timeout : Time.t;
  daemon_period : Time.t;      (** grouping-daemon evaluation cadence *)
  min_update_interval : Time.t;     (** the paper's 2 minutes *)
  workload_growth_trigger : float;  (** the paper's 0.30 *)
  full_regroup_growth : float;
      (** growth beyond which IniGroup is re-run instead of IncUpdate *)
  max_inc_iterations : int;
  incremental_updates : bool;  (** false = the paper's "static" runs *)
  flow_idle_timeout : Time.t;  (** for installed inter-group rules *)
  intensity_decay : float;     (** per-daemon-tick decay of the matrix *)
  preload_on_regroup : bool;
      (** Appendix B: bridge regrouping windows with temporary rules so
          traffic to departing peers does not punt while state settles *)
  reliable_state : bool;
      (** deliver [Group_config]/[Group_sync] over per-switch
          {!Lazyctrl_openflow.Reliable} sessions; flow mods and packet
          outs stay fire-and-forget like plain OpenFlow *)
  retrans : Reliable.config;
}

val default_config : config

type stats = {
  requests : int;        (** workload-relevant messages processed *)
  packet_ins : int;
  arp_escalations : int;
  state_reports : int;
  ring_alarms : int;
  flow_mods_sent : int;
  packet_outs_sent : int;
  buffer_outs_sent : int;
      (** replies that released a parked packet by buffer id instead of
          echoing its bytes back down the control link (DESIGN.md §13) *)
  arp_relays : int;      (** cross-group ARP broadcasts relayed *)
  floods : int;          (** unknown-destination tenant-scoped floods *)
  grouping_updates : int;     (** IncUpdate rounds applied (Fig. 8) *)
  full_regroups : int;
  failovers_handled : int;
  preloaded_rules : int;      (** Appendix B seamless-update preloads *)
}

type t

val create :
  ?tracer:Lazyctrl_trace.Tracer.t -> env -> config -> n_switches:int -> t
(** [tracer] (default disabled) receives a flight-recorder event per
    controller request, C-LIB lookup outcome (install / flood / ARP
    relay), regroup, and failover verdict. *)

val bootstrap : t -> intensity:Wgraph.t -> unit
(** Initial grouping from history statistics (the paper seeds SGI with the
    first hour of traffic): runs IniGroup, selects designated switches and
    backups, pushes [Group_config] to every switch, starts the echo and
    daemon timers. *)

val handle_message : t -> from:Ids.Switch_id.t -> msg -> unit
(** Entry point for everything arriving on control and state links. *)

val force_regroup : t -> unit
(** Operator action: run IniGroup on the current intensity matrix now and
    push the resulting configuration (counts as a full regroup). *)

val notify_path_failure :
  t -> src:Ids.Switch_id.t -> dst:Ids.Switch_id.t -> unit
(** Data-path failure (§III-E2): install detour rules on [src] sending
    traffic for [dst]'s hosts through a healthy member of [dst]'s group,
    whose G-FIB completes delivery. *)

val grouping : t -> Lazyctrl_grouping.Grouping.t option
val group_config_of : t -> Ids.Switch_id.t -> Proto.group_config option
val clib : t -> Clib.t
val monitor : t -> Failover.Monitor.t
val stats : t -> stats

val reliable_stats : t -> Reliable.stats
(** Aggregate over the per-switch reliable sessions. *)

val set_request_hook : t -> (unit -> unit) -> unit
(** Called once per workload-relevant request — the measurement tap for
    the Fig. 7 controller-workload series. *)

val set_update_hook : t -> (unit -> unit) -> unit
(** Called once per applied grouping update (Fig. 8). *)

val set_failover_hook :
  t -> (Ids.Switch_id.t -> Failover.verdict -> unit) -> unit
(** Called when the controller acts on a non-healthy verdict — the
    observable record of Table I end-to-end inference. *)

val current_intensity : t -> Wgraph.t
(** The decayed intensity matrix the daemon currently believes. *)

(** {2 Controller-cluster sharding}

    A cluster member is an ordinary controller instance owning a slice of
    the LCGs. The member logic ({!Lazyctrl_cluster.Member}) bootstraps
    and migrates slices; these entry points are what it drives.  A
    network sharded by LCG also bootstraps its one controller through
    {!bootstrap_shard}. *)

val bootstrap_shard :
  t -> groups:(Ids.Group_id.t * Ids.Switch_id.t list) list -> unit
(** Like {!bootstrap}, but with an externally assigned slice of groups
    instead of running IniGroup over the whole fabric: registers exactly
    the slice's switches in the monitor, pushes their configs, and starts
    the echo/daemon timers over that slice. The grouping daemon stays
    inert (no {!grouping} state), so a shard never regroups switches it
    does not own. *)

val adopt_groups :
  t -> groups:(Ids.Group_id.t * Ids.Switch_id.t list) list -> unit
(** Take ownership of additional groups at runtime (EASM migration or
    failover re-homing): register the members and push fresh configs.
    The switches themselves are claimed via {!Proto.Rehome} by the
    coordination layer before this is called. *)

val release_group : t -> Ids.Group_id.t -> Ids.Switch_id.t list
(** Hand a group off: forget its configs and verdicts, unregister its
    members from the monitor, reset their reliable sessions, and return
    the member list (for the new owner to adopt). *)

val shutdown : t -> unit
(** Cancel the echo and daemon timers — a killed cluster member must go
    silent, not keep probing switches it no longer owns. *)

val apply_remote_delta : t -> Proto.lfib_delta -> unit
(** Apply a C-LIB delta learnt from a cluster peer (without re-firing the
    delta hook, so gossip does not echo around the mesh). *)

val set_clib_delta_hook : t -> (Proto.lfib_delta -> unit) -> unit
(** Called for every locally learnt C-LIB delta (state reports and direct
    adverts) — the coordination layer broadcasts these to peers so every
    member's C-LIB converges on the global view. *)

val set_arp_relay_hook :
  t -> (origin:Ids.Switch_id.t -> Packet.t -> unit) -> unit
(** Called when an ARP relay finds no owner in the C-LIB, after
    broadcasting into locally configured groups — the coordination layer
    forwards the request to peers hosting the tenant's other groups. *)

val handle_remote_arp : t -> origin:Ids.Switch_id.t -> Packet.t -> unit
(** Entry point for an ARP request relayed by a cluster peer: broadcast
    into locally configured tenant groups only (never re-fires the
    relay hook). *)
