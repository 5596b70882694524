(** The LazyCtrl edge switch.

    Implements the Open vSwitch-based switch of §IV-A over the simulator:
    the fast path is the Fig. 5 forwarding routine over flow table, L-FIB
    and Bloom-filter G-FIB; the slow path covers the Ctrl-IF (control
    link), state advertisement (peer links), FIB maintenance, and — when
    this switch is selected — the designated switch's state-reporting
    duties. The failure-detection wheel's keep-alives (§III-E1) run on
    timers attached to the group configuration.

    The switch is environment-passing: all I/O goes through the callbacks
    in {!env}, so the same implementation runs under the full network
    simulation and under unit tests with recorded channels. *)

open Lazyctrl_net
open Lazyctrl_sim
open Lazyctrl_openflow

type msg = Proto.t Message.t

type env = {
  engine : Engine.t;
  send_controller : msg -> bool;
      (** control link; [false] means the link is down right now, which
          arms the reconnect/anti-entropy machinery *)
  send_peer : Ids.Switch_id.t -> msg -> unit;  (** peer links *)
  send_underlay : Packet.t -> unit;            (** encapsulated data plane *)
  deliver_local : Host.t -> Packet.t -> unit;  (** local host port *)
  underlay_ip_of : Ids.Switch_id.t -> Ipv4.t;
}

type config = {
  flow_table_capacity : int;
  gfib_bits_per_entry : int;
  expected_hosts_per_switch : int;
  report_false_positives : bool;
      (** §III-D4's optional misdelivery report to the controller *)
  reliable_state : bool;
      (** carry state dissemination (adverts, reports, alarms, group
          config) over {!Lazyctrl_openflow.Reliable} sessions; packet
          traffic and keep-alives stay fire-and-forget *)
  retrans : Reliable.config;
  miss_buffer_capacity : int;
      (** bounded queue of inter-group misses kept while the control link
          is lost, replayed on reconnect *)
  buffer_pool_capacity : int;
      (** slots in the {!Lazyctrl_openflow.Buffer_pool} backing buffered
          punts; a full pool degrades to full-packet punts *)
  buffer_ttl : Time.t;
      (** parked packets age out after this long without a [Buffer_out] *)
}

val default_config : config

type stats = {
  packets_from_hosts : int;
  packets_delivered : int;      (** frames handed to local hosts *)
  encap_sent : int;
  flow_table_handled : int;     (** plain frames matched by a flow rule *)
  lfib_handled : int;           (** local-to-local deliveries *)
  gfib_handled : int;           (** intra-group deliveries via G-FIB *)
  gfib_duplicates : int;        (** extra copies sent on multi-candidate hits *)
  punted : int;                 (** Packet_in sent to the controller *)
  fp_drops : int;               (** decapsulated frames dropped, Fig. 5 line 28 *)
  arp_local_answered : int;
  arp_group_escalated : int;    (** Group_arp sent to the designated switch *)
  adverts_sent : int;
  keepalives_sent : int;
  misses_buffered : int;        (** punts queued while the control link was lost *)
  misses_replayed : int;        (** buffered punts re-sent on reconnect *)
}

val stats_zero : stats
val stats_add : stats -> stats -> stats
(** Field-wise sum, for aggregating over a plane's switches. *)

type t

val create :
  ?tracer:Lazyctrl_trace.Tracer.t ->
  ?rng:Lazyctrl_util.Prng.t ->
  env ->
  config ->
  self:Ids.Switch_id.t ->
  t
(** [tracer] (default disabled) receives a flight-recorder event at every
    datapath decision point: ingress, flow-table/L-FIB hits, G-FIB
    probes, Bloom false positives, ARP resolution, designated-switch
    relays, and punts.  [rng] seeds retransmission jitter in the
    switch's reliable sessions (each session derives its own named
    sub-stream; the parent is never advanced). *)

val attach_host : t -> Host.t -> unit
(** VM boot / migration arrival: learn into the L-FIB and advertise. *)

val detach_host : t -> Ids.Host_id.t -> unit

val handle_from_host : t -> Host.t -> Packet.t -> unit
(** A frame arriving on a local host port (Fig. 5, plain branch). *)

val handle_underlay : t -> Packet.t -> unit
(** An encapsulated frame arriving from the core (Fig. 5, encap branch). *)

val handle_controller_message : t -> msg -> unit
val handle_peer_message : t -> from:Ids.Switch_id.t -> msg -> unit

val set_up : t -> bool -> unit
(** Power the switch off/on. While down, every input is ignored and
    timers are suspended. Powering back on clears volatile group state
    (the controller re-syncs it, §III-E3). *)

val is_up : t -> bool

val set_control_relay : t -> Ids.Switch_id.t option -> unit
(** Control-link failover: when set, control-link traffic is boxed in
    {!Proto.Relay} and sent through the given ring neighbour. *)

val group : t -> Proto.group_config option
val lfib : t -> Lfib.t
val gfib : t -> Gfib.t
val stats : t -> stats

val control_link_suspect : t -> bool
(** True between a failed control-link send and the reconnect re-sync. *)

val misses_pending : t -> int
(** Inter-group misses currently buffered awaiting reconnect. *)

val master_term : t -> int
(** Highest {!Proto.Rehome} term accepted so far (0 before any claim, and
    again after a reboot — mastership is re-established by the cluster).
    A claim is accepted only when its term is strictly greater; accepting
    resets the control session, announces the switch to the new master
    (Hello → config re-push), heals the master's C-LIB row with a full
    advert and drains the buffered misses to the new owner. *)

val reliable_stats : t -> Reliable.stats
(** Aggregate over the controller session and all peer sessions. *)

val flush_report : t -> unit
(** Force the periodic advert/report cycle now (tests and shutdown). *)
