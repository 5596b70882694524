(** The benchmark's workloads, the seeded inputs each one replays, and
    the plane adapter that drives them.

    Every workload is a fixed amount of simulated work: a fresh network
    is built from the seed, runs a control-plane warm-up with no
    traffic, replays a generated trace over a window of whole hours,
    then drains.  Only the library's public entry points
    are used: [Placement.generate], [Gen.real_like] and
    [Analysis.switch_intensity] build the inputs; [Network] or
    [Shard_net] simulate them. *)

open Lazyctrl_sim

type plane = Lazy | Openflow | Sharded

type t = {
  name : string;
  plane : plane;
  topo : Lazyctrl_topo.Placement.spec;
  flows : int;  (** trace flows replayed inside the window *)
  hours : int;  (** length of the traffic window *)
}

val all : t list
(** [day-lazy], [burst-lazy], [day-openflow], [day-sharded]. *)

val find : string -> t option

val smoke : t -> t
(** The same workload on an 8-switch topology, 1 h and 2k flows: what
    the test suite runs. *)

val horizon : t -> Time.t
(** The simulated span of one run: a 3-minute warm-up (flows that arrive
    before the first 2-minute state sync fail ARP resolution), the
    traffic window, and a 1-minute drain. *)

val domains : t -> int
(** OCaml domains the workload runs on. *)

type counts = {
  events : int;  (** engine events fired *)
  injected : int;  (** trace flows started *)
  delivered : int;  (** flows whose first packet reached its destination *)
  requests : int;  (** controller requests (Fig. 7's workload) *)
  ctrl_bytes : int;  (** encoded bytes on controller-facing channels *)
}
(** The exact counts every mode of one workload and seed must agree on. *)

type layers = {
  switch : Lazyctrl_switch.Edge_switch.stats;
  links : Lazyctrl_core.Network.link_totals option;  (** [None] on [Sharded] *)
  reliable : Lazyctrl_openflow.Reliable.stats;
  controller : Lazyctrl_controller.Controller.stats option;
  of_controller : Lazyctrl_baseline.Of_controller.stats option;
  tracers : Lazyctrl_trace.Tracer.t list;
  exchange : Shard_engine.stats option;  (** [Sharded] only *)
}
(** Post-run per-layer state, read through the public stats accessors. *)

type net = {
  engine : Engine.t option;
      (** The single event engine, for step-driven runs; [None] on
          [Sharded], whose shard engines only [Shard_net.run] drives. *)
  slice : Time.t;
      (** Granularity at which the caller advances the plane and samples
          the heap. *)
  advance : Time.t -> unit;
      (** Run the plane up to the given time (feeding flows on
          [Sharded]).  After a step-driven run it only moves the clock. *)
  counts : unit -> counts;
  first_pkt_ms : unit -> float;  (** mean first-packet latency *)
  layers : unit -> layers;
  close : unit -> unit;  (** join worker domains; idempotent *)
}

type setup = {
  net : net;
  spans : (string * float) list;
      (** wall seconds of each public set-up call, in order:
          [topo.generate_s], [traffic.gen_s], [traffic.intensity_s],
          [core.create_s], [core.bootstrap_s], [core.replay_s].  A step a
          plane does not take reads only the clock's own cost. *)
  topology : Lazyctrl_topo.Topology.t;
  trace : Lazyctrl_traffic.Trace.t;  (** the replayed flows, after the warm-up *)
}

val setup : ?traced:bool -> t -> seed:int -> setup
(** Build the inputs from [seed] and a ready-to-run plane.  Topology
    stream [seed*7+1], trace stream [seed*7+4]; [traced] (default
    false) threads an enabled tracer through the plane. *)
