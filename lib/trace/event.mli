(** Structured flight-recorder events.

    One event is recorded at each control-plane decision point the paper
    cares about: packet ingress at an edge switch, an L-FIB or
    flow-table hit, a G-FIB probe (including Bloom false positives), a
    designated-switch relay, every controller request, regrouping, and
    chaos fault / failover verdicts.

    Events are causally linked: each event owns a {e span} — the pair of
    its simulated timestamp and a per-tracer sequence number, never wall
    clock or randomness — and flow-tagged events carry the span of the
    previous event on the same flow as [parent], so a flow's history
    forms a chain that can be replayed from a trace file. *)

type span = { at : Lazyctrl_sim.Time.t; sn : int }

val span_compare : span -> span -> int
val span_equal : span -> span -> bool

type regroup = { full : bool; groups : int }
(** [full] distinguishes a full re-partition from an incremental
    adjustment; [groups] is the resulting group count. *)

type chaos = { fault : string; phase : string }
(** [fault] is the {!Lazyctrl_chaos.Fault.kind} label; [phase] is
    ["onset"] or ["repair"]. *)

type kind =
  | Ingress  (** packet entered the network at its source edge switch *)
  | Flow_table_hit  (** matched a controller-installed flow-table rule *)
  | Lfib_hit  (** destination resolved from the local L-FIB *)
  | Gfib_probe of int
      (** G-FIB Bloom probe; the payload is the number of candidate
          peer switches that matched *)
  | Bloom_fp  (** an encapsulated frame arrived at a switch that does
          not host its destination: a Bloom false positive *)
  | Punt of string
      (** packet left the fast path toward the controller; the payload
          names the reason (e.g. ["no_match"]) *)
  | Deliver  (** packet handed to its destination host *)
  | Arp_local  (** ARP request answered from local state *)
  | Arp_group  (** ARP request forwarded to the designated switch *)
  | Arp_escalate  (** ARP request escalated to the controller *)
  | Designated_relay of string
      (** the designated switch relayed intra-group control traffic;
          the payload names what (["advert"], ["group_arp"],
          ["state_report"]) *)
  | Ctrl_request of string
      (** the controller charged one request to its workload budget; the
          payload is the request-kind label (["packet_in"],
          ["arp_escalate"], ...) *)
  | Ctrl_packet_in  (** controller ran C-LIB lookup for a punted packet *)
  | Ctrl_install of int
      (** controller installed a forwarding rule; the payload is the
          target switch id *)
  | Ctrl_arp_relay  (** controller answered or relayed an escalated ARP *)
  | Ctrl_flood  (** controller fell back to a tenant-scoped flood *)
  | Regroup of regroup  (** controller re-partitioned the LCGs *)
  | Chaos_fault of chaos  (** a chaos fault began or was repaired *)
  | Failover of string
      (** wheel failure inference produced a verdict; the payload is the
          verdict label *)
  | Retransmit of string
      (** the reliable channel re-sent an unacked segment; the payload
          is the endpoint name *)
  | Reliable_giveup of string
      (** the reliable channel exhausted its retry budget *)

type t = {
  time : Lazyctrl_sim.Time.t;
  seq : int;
  flow : int option;  (** flow id for data-path events, [None] for
                          control-plane bookkeeping *)
  switch : int option;  (** switch id where the event happened, [None]
                            at the controller *)
  parent : span option;  (** span of the previous event on this flow *)
  kind : kind;
}

val span_of : t -> span

val tag : kind -> int
(** Dense tag in [0, n_tags): one slot per constructor, ignoring
    payloads.  Used for cumulative per-kind counters that survive
    ring-buffer eviction. *)

val n_tags : int

val tag_label : int -> string
(** Stable wire name of a tag, e.g. ["gfib_probe"].
    @raise Invalid_argument outside [0, n_tags). *)

val kind_label : kind -> string
(** [tag_label (tag k)]. *)

val equal : t -> t -> bool
val compare : t -> t -> int
(** Span order: [(time, seq)] lexicographically. *)

val to_json : t -> Lazyctrl_util.Json.t
(** Deterministic field order; all numbers are integers (timestamps in
    nanoseconds), so rendering is byte-stable across runs. *)

val of_json : Lazyctrl_util.Json.t -> (t, string) result
val pp : Format.formatter -> t -> unit
