open Lazyctrl_sim
module Placement = Lazyctrl_topo.Placement
module Topology = Lazyctrl_topo.Topology
module Gen = Lazyctrl_traffic.Gen
module Trace = Lazyctrl_traffic.Trace
module Analysis = Lazyctrl_traffic.Analysis
module Network = Lazyctrl_core.Network
module Shard_net = Lazyctrl_core.Shard_net
module Params = Lazyctrl_core.Params
module Host_model = Lazyctrl_core.Host_model
module Controller = Lazyctrl_controller.Controller
module Recorder = Lazyctrl_metrics.Recorder
module Tracer = Lazyctrl_trace.Tracer
module Prng = Lazyctrl_util.Prng
module Clock = Lazyctrl_perf.Clock

type plane = Lazy | Openflow | Sharded

type t = {
  name : string;
  plane : plane;
  topo : Placement.spec;
  flows : int;
  hours : int;
}

(* Rates come from Daylong, which replays 120k flows a day on every
   plane, on its 68-switch topology.  Here the topology is the paper's
   272-switch one, so the day-* workloads carry Daylong's flow count
   (5k an hour), a quarter of its per-switch load; burst-lazy carries
   its per-switch load (120k / 68 * 272 a day, 20k an hour).  Windows
   are one or two hours, not the day, so that a repetition takes a few
   seconds and a run holds several; the OpenFlow plane fires about 1.6k
   events per flow, hence its one-hour window. *)
let all =
  [
    { name = "day-lazy"; plane = Lazy; topo = Placement.default; flows = 10_000; hours = 2 };
    { name = "burst-lazy"; plane = Lazy; topo = Placement.default; flows = 20_000; hours = 1 };
    { name = "day-openflow"; plane = Openflow; topo = Placement.default; flows = 5_000; hours = 1 };
    { name = "day-sharded"; plane = Sharded; topo = Placement.default; flows = 10_000; hours = 2 };
  ]

let find name = List.find_opt (fun w -> String.equal w.name name) all

let smoke w =
  {
    w with
    topo =
      {
        Placement.n_switches = 8;
        n_tenants = 4;
        tenant_size_min = 6;
        tenant_size_max = 10;
        racks_per_tenant = 2;
        stray_fraction = 0.1;
      };
    flows = 2_000;
    hours = 1;
  }

let warmup = Time.of_min 3
let drain = Time.of_min 1
let horizon w = Time.add (Time.add warmup (Time.of_hour w.hours)) drain
let domains w = match w.plane with Sharded -> 2 | Lazy | Openflow -> 1

(* The Fig. 7 controller cadences, as Daylong sets them. *)
let controller_config =
  {
    Controller.default_config with
    Controller.group_size_limit = 14;
    sync_period = Time.of_min 2;
    keepalive_period = Time.of_sec 30;
    echo_period = Time.of_min 1;
    echo_timeout = Time.of_min 3;
    daemon_period = Time.of_sec 30;
    incremental_updates = true;
  }

type counts = {
  events : int;
  injected : int;
  delivered : int;
  requests : int;
  ctrl_bytes : int;
}

type layers = {
  switch : Lazyctrl_switch.Edge_switch.stats;
  links : Network.link_totals option;
  reliable : Lazyctrl_openflow.Reliable.stats;
  controller : Controller.stats option;
  of_controller : Lazyctrl_baseline.Of_controller.stats option;
  tracers : Tracer.t list;
  exchange : Shard_engine.stats option;
}

type net = {
  engine : Engine.t option;
  slice : Time.t;
  advance : Time.t -> unit;
  counts : unit -> counts;
  first_pkt_ms : unit -> float;
  layers : unit -> layers;
  close : unit -> unit;
}

type setup = {
  net : net;
  spans : (string * float) list;
  topology : Topology.t;
  trace : Trace.t;
}

(* Trace times [0, hours) moved past the warm-up. *)
let after_warmup w trace =
  let b =
    Trace.Builder.create ~n_hosts:(Trace.n_hosts trace)
      ~duration:(Time.add warmup (Time.of_hour w.hours))
  in
  Trace.iter trace (fun f ->
      Trace.Builder.add b ~time:(Time.add warmup f.Trace.time) ~src:f.Trace.src
        ~dst:f.Trace.dst ~bytes:f.Trace.bytes ~packets:f.Trace.packets);
  Trace.Builder.build b

(* Record the wall time of one set-up call under [name]. *)
let span spans name f =
  let t0 = Clock.now_ns () in
  let v = f () in
  spans := (name, float_of_int (Clock.elapsed_ns ~since:t0) *. 1e-9) :: !spans;
  v

let network w ~params ~tracer ~topo ~trace ~intensity spans =
  let span name f = span spans name f in
  let mode = match w.plane with Openflow -> Network.Openflow | Lazy | Sharded -> Network.Lazy in
  let net =
    span "core.create_s" (fun () ->
        Network.create ~params ~controller_config ?tracer ~mode ~topo
          ~horizon:(horizon w) ())
  in
  span "core.bootstrap_s" (fun () ->
      Option.iter (fun g -> Network.bootstrap net ~intensity:g ()) intensity);
  span "core.replay_s" (fun () -> Network.replay net trace);
  let engine = Network.engine net in
  {
    engine = Some engine;
    slice = Time.of_min 10;
    advance = (fun until -> Network.run net ~until);
    counts =
      (fun () ->
        {
          events = Engine.events_processed engine;
          injected = Trace.n_flows trace;
          delivered = Host_model.flows_delivered (Network.host_model net);
          requests = Recorder.total_requests (Network.recorder net);
          ctrl_bytes = Network.ctrl_bytes_sent net;
        });
    first_pkt_ms =
      (fun () ->
        Lazyctrl_util.Stats.Online.mean
          (Recorder.first_latency_summary (Network.recorder net)));
    layers =
      (fun () ->
        {
          switch = Network.switch_stats_sum net;
          links = Some (Network.link_stats net);
          reliable = Network.reliability_stats net;
          controller = Option.map Controller.stats (Network.lazy_controller net);
          of_controller =
            Option.map Lazyctrl_baseline.Of_controller.stats (Network.of_controller net);
          tracers = [ Network.tracer net ];
          exchange = None;
        });
    close = ignore;
  }

(* The only function that knows the sharded plane: flows are fed with
   [Shard_net.start_flow] at the start of the 10 s slice holding their
   arrival time. *)
let sharded w ~params ~traced ~topo ~trace spans =
  let span name f = span spans name f in
  let net =
    span "core.create_s" (fun () ->
        Shard_net.create ~params ~controller_config ~domains:(domains w) ~shards:4
          ~trace:traced ~topo ~horizon:(horizon w) ())
  in
  span "core.bootstrap_s" (fun () -> Shard_net.bootstrap net);
  let next_flow =
    span "core.replay_s" (fun () -> ref 0)
  in
  let n = Trace.n_flows trace in
  let advance until =
    while !next_flow < n && Time.((Trace.flow trace !next_flow).Trace.time < until) do
      let f = Trace.flow trace !next_flow in
      Shard_net.start_flow net ~src:f.Trace.src ~dst:f.Trace.dst ~bytes:f.Trace.bytes
        ~packets:f.Trace.packets;
      incr next_flow
    done;
    Shard_net.run net ~until
  in
  let recorders () = Array.to_list (Shard_net.recorders net) in
  {
    engine = None;
    slice = Time.of_sec 10;
    advance;
    counts =
      (fun () ->
        let st = Shard_net.stats net in
        {
          events = st.Shard_net.engine.Shard_engine.events;
          injected = !next_flow;
          delivered = st.Shard_net.flows_delivered;
          requests =
            List.fold_left (fun acc r -> acc + Recorder.total_requests r) 0 (recorders ());
          ctrl_bytes =
            List.fold_left (fun acc r -> acc + Recorder.total_ctrl_bytes r) 0 (recorders ());
        });
    first_pkt_ms =
      (fun () ->
        let module Online = Lazyctrl_util.Stats.Online in
        Online.mean
          (List.fold_left
             (fun acc r -> Online.merge acc (Recorder.first_latency_summary r))
             (Online.create ()) (recorders ())));
    layers =
      (fun () ->
        let controller = Shard_net.controller net in
        {
          switch = Shard_net.switch_stats_sum net;
          links = None;
          reliable = Controller.reliable_stats controller;
          controller = Some (Controller.stats controller);
          of_controller = None;
          tracers = Array.to_list (Shard_net.tracers net);
          exchange = Some (Shard_net.stats net).Shard_net.engine;
        });
    close = (fun () -> Shard_net.shutdown net);
  }

let setup ?(traced = false) w ~seed =
  let spans = ref [] in
  let span name f = span spans name f in
  let topology =
    span "topo.generate_s" (fun () ->
        Placement.generate ~rng:(Prng.create ((seed * 7) + 1)) w.topo)
  in
  (* The generator's default mix, cross-tenant flows included: they are
     what reaches the controller's ARP relay.  A few of them are lost to
     ARP give-ups; [counts] reports how many. *)
  let trace =
    span "traffic.gen_s" (fun () ->
        after_warmup w
          (Gen.real_like
             ~rng:(Prng.create ((seed * 7) + 4))
             ~topo:topology ~n_flows:w.flows ~duration:(Time.of_hour w.hours) ()))
  in
  (* Initial grouping from the first hour of traffic, as in §V-D.  The
     other planes take no history. *)
  let intensity =
    span "traffic.intensity_s" (fun () ->
        match w.plane with
        | Lazy ->
            Some
              (Analysis.switch_intensity
                 ~until:(Time.add warmup (Time.of_hour 1))
                 ~topo:topology trace)
        | Openflow | Sharded -> None)
  in
  let params = Params.with_seed seed Params.default in
  let net =
    match w.plane with
    | Sharded -> sharded w ~params ~traced ~topo:topology ~trace spans
    | Lazy | Openflow ->
        let tracer = if traced then Some (Tracer.create ()) else None in
        network w ~params ~tracer ~topo:topology ~trace ~intensity spans
  in
  { net; spans = List.rev !spans; topology; trace }
