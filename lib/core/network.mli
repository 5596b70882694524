(** Whole-network simulation wiring.

    Builds the complete system of §IV for a given topology and mode —
    either the LazyCtrl hybrid plane (edge switches with L-FIB/G-FIB,
    designated switches, central controller) or the standard-OpenFlow
    comparison plane (dumb switches, reactive learning controller) — with
    its channels, §13 wire codec, loss models, underlay, host models and
    metrics recorders.  This is the one assembly examples, experiments,
    the benchmark and the CLI drive.

    The lazy plane may run sharded by Local Control Group ([~shards] >
    1) on {!Lazyctrl_sim.Shard_engine}.  The partition is the paper's
    own: a static [Sgi.ini_group] over {!default_intensity}, frozen at
    create and packed onto [shards] logical switch shards; the
    controller, its service queue and its recorder own one extra shard.
    LCG locality keeps most events shard-local.  Channels and the
    underlay deliver only through [Shard_engine.post], which is a plain
    [Engine.schedule_at] on one shard and an exchange message carrying
    the link latency across shards, so a sharded run has the same
    channels, codec, loss model and byte accounting as a one-shard run.
    The logical partition never depends on the physical domain count,
    so {!fingerprint} is byte-identical at every [domains] value. *)

open Lazyctrl_net
open Lazyctrl_sim
open Lazyctrl_graph
open Lazyctrl_topo
open Lazyctrl_traffic
open Lazyctrl_switch
open Lazyctrl_controller
open Lazyctrl_baseline
open Lazyctrl_metrics

type mode = Lazy | Openflow

type t

val create :
  ?params:Params.t ->
  ?controller_config:Controller.config ->
  ?of_config:Of_controller.config ->
  ?tracer:Lazyctrl_trace.Tracer.t ->
  ?shards:int ->
  ?domains:int ->
  mode:mode ->
  topo:Topology.t ->
  horizon:Time.t ->
  unit ->
  t
(** Builds switches, channels, controller and host models; attaches every
    host in the topology to its edge switch.  [tracer] (default
    disabled) is threaded through the lazy plane — edge switches,
    controller, reliable sessions — so a run can be flight-recorded;
    the baseline OpenFlow plane is not instrumented.

    [shards] (default 1, clamped to the switch count) is the number of
    {e logical} switch shards, fixed independently of [domains] so
    results do not depend on parallelism.  [domains] defaults to the
    [LAZYCTRL_DOMAINS] environment variable
    ({!Lazyctrl_sim.Shard_engine.default_domains}).  At [shards > 1]
    every logical shard gets its own host model, recorder and tracer
    (shard 0 keeps [tracer]; the others are {!Lazyctrl_trace.Tracer.derive}d
    from it).
    @raise Invalid_argument for an OpenFlow plane on more than one
    shard. *)

val engine : t -> Engine.t
(** Logical shard 0's engine — the only one at one shard, which
    step-driven harnesses may drive directly. *)

val recorder : t -> Recorder.t
(** Logical shard 0's recorder — the only one at one shard. *)

val tracer : t -> Lazyctrl_trace.Tracer.t
(** The tracer passed at creation (or the disabled singleton). *)

val topology : t -> Topology.t
val mode : t -> mode

val host_model : t -> Host_model.t
(** Logical shard 0's host model — the only one at one shard. *)

val default_intensity : Topology.t -> Wgraph.t
(** A placement-derived prior (tenant co-location weights) for
    bootstrapping before any traffic statistics exist. *)

val bootstrap : t -> ?intensity:Wgraph.t -> unit -> unit
(** Lazy mode: run the controller's initial grouping (IniGroup) from the
    given history statistics (default {!default_intensity}) and push the
    group configurations. No-op in OpenFlow mode.  A sharded network
    instead pushes its frozen partition through
    [Controller.bootstrap_shard]; the grouping daemon stays inert, so the
    shard map never changes mid-run.
    @raise Invalid_argument when [intensity] is given to a sharded
    network. *)

val start_flow :
  t -> src:Ids.Host_id.t -> dst:Ids.Host_id.t -> bytes:int -> packets:int -> unit
(** Application-level flow initiation at the source host.  On a sharded
    network, call it between runs (or from the source shard's own
    callbacks), never from another shard's window. *)

val replay : t -> Trace.t -> unit
(** Schedule a whole trace of flow arrivals.
    @raise Invalid_argument on a sharded network; feed it with
    {!start_flow} between runs. *)

val run : t -> until:Time.t -> unit
(** Advance every shard to [until] (inclusive). *)

val shutdown : t -> unit
(** Join the worker domains (idempotent, a no-op at one domain);
    required between repeated sharded runs in benches and tests. *)

val lazy_controller : t -> Controller.t option
val of_controller : t -> Of_controller.t option
val edge_switch : t -> Ids.Switch_id.t -> Edge_switch.t option
val of_switch : t -> Ids.Switch_id.t -> Of_switch.t option

val switch_stats_sum : t -> Edge_switch.stats
(** Aggregate over all edge switches (zeros in OpenFlow mode). *)

val deploy_host : t -> Host.t -> at:Ids.Switch_id.t -> unit
(** Bring a brand-new VM online: add it to the topology and attach it at
    its edge switch (which learns and advertises it). *)

val migrate_host : t -> Ids.Host_id.t -> to_:Ids.Switch_id.t -> unit
(** VM migration: detach at the old switch, move in the topology, attach
    at the new one (driving the live state-dissemination path).
    @raise Invalid_argument when the two switches sit on different
    shards. *)

(** {1 Failure injection} (lazy mode) *)

val fail_switch : t -> Ids.Switch_id.t -> unit
(** Power the switch off. The controller's wheel detects it, reselects a
    designated switch if needed, and issues a reboot; the switch comes
    back after [params.reboot_delay] and is re-synced. *)

val repair_switch : t -> Ids.Switch_id.t -> unit
(** Power the switch back on (idempotent). The switch sends a power-on
    [Hello] so the controller re-pushes its group configuration even when
    the outage was shorter than failure detection. *)

val fail_control_link : t -> Ids.Switch_id.t -> unit
val repair_control_link : t -> Ids.Switch_id.t -> unit
val fail_peer_link : t -> Ids.Switch_id.t -> Ids.Switch_id.t -> unit
val repair_peer_link : t -> Ids.Switch_id.t -> Ids.Switch_id.t -> unit

val fail_peer_link_directed :
  t -> src:Ids.Switch_id.t -> dst:Ids.Switch_id.t -> unit
(** Break one direction only — the Table I "peer link (up)" vs "(down)"
    distinction. *)

val fail_data_path :
  t -> src:Ids.Switch_id.t -> dst:Ids.Switch_id.t -> notify:bool -> unit
(** Break the one-way underlay path; with [notify], the controller is told
    and installs detour rules (§III-E2). *)

val repair_data_path : t -> src:Ids.Switch_id.t -> dst:Ids.Switch_id.t -> unit

(** {1 Channel loss injection} (lazy mode)

    Seeded Gilbert–Elliott loss on the control and peer channels. The
    per-channel loss streams are sub-streams of the network seed, so runs
    are reproducible regardless of when loss is (re)configured. *)

val set_control_loss : t -> Lazyctrl_openflow.Channel.loss_spec option -> unit
(** Apply (or with [None], clear) a loss model on every switch ↔
    controller channel, both directions. *)

val set_peer_loss : t -> Lazyctrl_openflow.Channel.loss_spec option -> unit
(** Same for every switch ↔ switch peer channel, including channels
    created lazily after this call. *)

(** {1 Aggregate channel and reliability accounting} *)

type link_totals = {
  links_sent : int;
  links_delivered : int;
  links_dropped : int;      (** dropped because the channel was down *)
  links_lost : int;         (** dropped by the random loss model *)
  links_duplicated : int;
  links_bytes_sent : int;
      (** encoded frame bytes offered, all channels (DESIGN.md §13) *)
  links_bytes_delivered : int;  (** frame bytes actually delivered *)
}

val link_stats : t -> link_totals
(** Totals over all control and peer channels. *)

val ctrl_bytes_sent : t -> int
(** Encoded bytes offered on the controller-facing channels only (both
    directions, either plane) — the control-channel load behind the
    bytes/sec series.  Equals the recorders' summed [total_ctrl_bytes]
    and the tracers' summed [ctrl_bytes] exactly, by construction: each
    send charges its own shard's recorder and tracer. *)

val reliability_stats : t -> Lazyctrl_openflow.Reliable.stats
(** Aggregate over every reliable session in the network — controller-side
    and switch-side. [violations = 0] is the exactly-once invariant. *)

(** {1 Shards} *)

val shard_of : t -> Ids.Switch_id.t -> int
(** Owning logical shard of a switch (controller shard =
    {!switch_shards} when sharded, 0 otherwise). *)

val switch_shards : t -> int
val domains : t -> int

val window : t -> Time.t
(** The synchronization window: the smallest cross-shard link latency. *)

val recorders : t -> Recorder.t array
(** Per logical shard, controller shard last. *)

val tracers : t -> Lazyctrl_trace.Tracer.t array
(** Per logical shard; merge or export per shard at analysis time. *)

type stats = {
  engine : Shard_engine.stats;
  flows_started : int;
  flows_delivered : int;
  underlay_delivered : int;  (** encapsulated frames handed to a switch *)
  underlay_dropped : int;  (** plain frames, unknown endpoints, failed paths *)
}

val stats : t -> stats

val fingerprint : t -> string
(** Byte-exact observable state in logical-shard order: per-shard
    recorder series and control bytes, summed switch stats, controller
    stats, the frozen grouping with its shard map, channel totals, flow
    accounting and exchange totals.  Equal across double runs {e and}
    across domain counts. *)

(** {1 Channel wiring shared with the cluster plane} *)

val set_proto_codec : Edge_switch.msg Lazyctrl_openflow.Channel.t -> unit
(** Plug the DESIGN.md §13 wire codec (with [Proto]'s extension) into a
    switch-facing channel, so it carries and counts real frames. *)

val apply_loss :
  Lazyctrl_util.Prng.t ->
  Lazyctrl_openflow.Channel.loss_spec option ->
  'a Lazyctrl_openflow.Channel.t ->
  unit
(** Attach (or with [None], clear) a loss model drawing from the
    sub-stream of the given parent keyed by the channel's name. *)

val peer_channel :
  link:(int -> int -> Engine.t * Engine.post) ->
  Params.t ->
  loss_rng:Lazyctrl_util.Prng.t ->
  peer_loss:Lazyctrl_openflow.Channel.loss_spec option ref ->
  switch:(int -> Edge_switch.t) ->
  (int * int, Edge_switch.msg Lazyctrl_openflow.Channel.t) Hashtbl.t ->
  int * int ->
  Edge_switch.msg Lazyctrl_openflow.Channel.t
(** [peer_channel ~link params ~loss_rng ~peer_loss ~switch peers (src, dst)]
    is the directed peer link [src -> dst] from [peers], created and
    registered on first use: named ["peer-SRC-DST"], §13 codec, the
    current [!peer_loss], delivering to [switch dst].  [link src dst]
    gives the sender's engine and the post towards [dst]; it is called
    only when the link is created. *)
