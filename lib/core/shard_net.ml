(* Domain-parallel LazyCtrl network over {!Lazyctrl_sim.Shard_engine}.

   The partition is the paper's own: switches shard by Local Control
   Group (a static [Sgi.ini_group] over the placement-derived intensity
   prior), because LCG locality means most events — flow-table hits,
   L-FIB/G-FIB forwarding, intra-group ARP, state adverts — stay inside
   one shard.  Groups are packed onto [shards] logical switch shards by
   balanced greedy assignment; the controller (plus its service queue
   and measurement recorder) owns one extra logical shard.  Logical
   shards are fixed independently of the physical domain count, which is
   what makes the fingerprint byte-identical at any [domains] value.

   Every cross-shard interaction is an explicit exchange message with
   its real link latency (control 1 ms, peer 150 us, underlay 250 us —
   all >= the window, so the conservative rule holds by construction):

   - switch -> controller:  post + control latency, then the service
     queue models controller CPU on the controller shard
   - controller -> switch:  config pushes, flow mods, packet outs,
     reboots and relay requests post back to the owning shard
   - switch -> switch:      peer adverts/gossip and encapsulated
     underlay frames post to the destination switch's shard
   - host flow accounting:  per-shard {!Host_model}s carve disjoint
     flow-id spaces (base = shard, stride = #switch shards); a first
     delivery on a foreign shard posts a completion receipt carrying the
     delivery time back to the owner, which records the latency sample

   Single-domain [Network] remains the full-fidelity reference (channel
   loss, link failover, migration); this plane trades those injection
   points for scale and keeps the same protocol stack. *)

open Lazyctrl_net
open Lazyctrl_sim
open Lazyctrl_topo
open Lazyctrl_switch
open Lazyctrl_controller
open Lazyctrl_metrics
module Prng = Lazyctrl_util.Prng
module Sid = Ids.Switch_id
module Tracer = Lazyctrl_trace.Tracer

type t = {
  params : Params.t;
  topo : Topology.t;
  sharder : Shard_engine.t;
  n_switch_shards : int; (* controller shard index = n_switch_shards *)
  shard_of : int array; (* switch -> logical shard *)
  grouping : Lazyctrl_grouping.Grouping.t;
  switches : Edge_switch.t array;
  controller : Controller.t;
  models : Host_model.t array; (* per switch shard *)
  recorders : Recorder.t array; (* per logical shard, controller last *)
  tracers : Tracer.t array; (* per logical shard, controller last *)
  u_delivered : int array; (* per switch shard underlay counters *)
  u_dropped : int array;
}

type stats = {
  engine : Shard_engine.stats;
  flows_started : int;
  flows_delivered : int;
  underlay_delivered : int;
  underlay_dropped : int;
}

(* Conservative window: no cross-shard post may undercut it, so it is the
   smallest cross-shard link latency in play. *)
let window_of (params : Params.t) =
  Time.min params.Params.control_link_latency
    (Time.min params.Params.peer_link_latency params.Params.underlay_latency)

(* Balanced greedy packing: biggest group first onto the least-loaded
   shard, ties to the lowest shard index — a pure function of the
   grouping, so identical at every domain count. *)
let assign_groups grouping ~n_shards =
  let module Grouping = Lazyctrl_grouping.Grouping in
  let n_groups = Grouping.n_groups grouping in
  let sizes = Grouping.sizes grouping in
  let order = Array.init n_groups (fun g -> g) in
  Array.sort
    (fun a b ->
      let c = Int.compare sizes.(b) sizes.(a) in
      if c <> 0 then c else Int.compare a b)
    order;
  let load = Array.make n_shards 0 in
  let shard_of_group = Array.make n_groups 0 in
  Array.iter
    (fun g ->
      let best = ref 0 in
      for s = 1 to n_shards - 1 do
        if load.(s) < load.(!best) then best := s
      done;
      shard_of_group.(g) <- !best;
      load.(!best) <- load.(!best) + sizes.(g))
    order;
  let assignment = Grouping.assignment grouping in
  Array.map (fun g -> shard_of_group.(g)) assignment

let fast_path_latency t ~src ~dst =
  let two_ports = Time.scale t.params.Params.host_port_latency 2.0 in
  if Sid.equal (Topology.location t.topo src) (Topology.location t.topo dst)
  then two_ports
  else Time.add two_ports t.params.Params.underlay_latency

let record_delivery t ~shard (meta : Host_model.flow_meta) ~delivered_at =
  let r = t.recorders.(shard) in
  Recorder.record_first_packet_latency r (Time.diff delivered_at meta.started);
  if meta.Host_model.packets > 1 then
    Recorder.record_fast_path_latency r
      ~n:(meta.Host_model.packets - 1)
      (fast_path_latency t ~src:meta.Host_model.src ~dst:meta.Host_model.dst)

(* Frame on a host port of a shard-[s] switch: dispatch to the shard's
   host model; a remote-owned first delivery posts a receipt carrying the
   delivery time back to the owning shard, which holds the flow metadata
   and the recorder the sample belongs to. *)
let host_delivery t ~shard host pkt =
  match Host_model.deliver t.models.(shard) ~to_:host pkt with
  | Host_model.Data_first meta ->
      record_delivery t ~shard meta
        ~delivered_at:(Engine.now (Shard_engine.engine t.sharder shard))
  | Host_model.Data_remote id ->
      let owner = id mod t.n_switch_shards in
      let delivered_at = Engine.now (Shard_engine.engine t.sharder shard) in
      Shard_engine.post t.sharder ~src:shard ~dst:owner
        ~at:(Time.add delivered_at (Shard_engine.window t.sharder))
        (fun () ->
          match Host_model.complete_remote t.models.(owner) id with
          | Some meta -> record_delivery t ~shard:owner meta ~delivered_at
          | None -> ())
  | Host_model.Data_duplicate | Host_model.Arp_handled
  | Host_model.Not_for_host ->
      ()

let create ?(params = Params.default)
    ?(controller_config = Controller.default_config) ?domains ?shards ?window
    ?(trace = false) ~topo ~horizon () =
  let n = Topology.n_switches topo in
  let n_switch_shards =
    match shards with Some s -> max 1 (min s n) | None -> max 1 (min 4 n)
  in
  let window =
    let bound = window_of params in
    match window with
    | None -> bound
    | Some w ->
        if Time.(w > bound) then
          invalid_arg
            "Shard_net.create: window exceeds the smallest cross-shard latency"
        else w
  in
  let ctrl_shard = n_switch_shards in
  let sharder =
    Shard_engine.create ?domains ~shards:(n_switch_shards + 1) ~window ()
  in
  let engines = Array.init (n_switch_shards + 1) (Shard_engine.engine sharder) in
  let rng = Prng.create params.Params.seed in
  (* Static LCG partition, frozen for the run: the grouping daemon stays
     inert under [bootstrap_shard], so switches never migrate shards. *)
  let grouping =
    Lazyctrl_grouping.Sgi.ini_group
      ~rng:(Prng.named rng "shard-grouping")
      ~limit:controller_config.Controller.group_size_limit
      (Network.default_intensity topo)
  in
  let shard_of = assign_groups grouping ~n_shards:n_switch_shards in
  let tracers =
    Array.init (n_switch_shards + 1) (fun _ ->
        if trace then Tracer.create () else Tracer.disabled)
  in
  let recorders =
    Array.init (n_switch_shards + 1) (fun s ->
        Recorder.create engines.(s) ~horizon ())
  in
  let switches : Edge_switch.t option array = Array.make n None in
  let get_switch i = Option.get switches.(i) in
  let service =
    Service_queue.create engines.(ctrl_shard)
      ~service_time:params.Params.controller_service
  in
  let post = Shard_engine.post sharder in
  let controller_env =
    {
      Controller.engine = engines.(ctrl_shard);
      send_switch =
        (fun sw msg ->
          let i = Sid.to_int sw in
          post ~src:ctrl_shard ~dst:shard_of.(i)
            ~at:
              (Time.add
                 (Engine.now engines.(ctrl_shard))
                 params.Params.control_link_latency)
            (fun () -> Edge_switch.handle_controller_message (get_switch i) msg));
      reboot_switch =
        (fun sw ->
          let i = Sid.to_int sw in
          post ~src:ctrl_shard ~dst:shard_of.(i)
            ~at:
              (Time.add (Engine.now engines.(ctrl_shard)) params.Params.reboot_delay)
            (fun () -> Edge_switch.set_up (get_switch i) true));
      request_relay =
        (fun sw ~via ->
          let i = Sid.to_int sw in
          post ~src:ctrl_shard ~dst:shard_of.(i)
            ~at:
              (Time.add
                 (Engine.now engines.(ctrl_shard))
                 params.Params.control_link_latency)
            (fun () -> Edge_switch.set_control_relay (get_switch i) via));
      rng = Prng.named rng "controller";
    }
  in
  let controller =
    Controller.create ~tracer:tracers.(ctrl_shard) controller_env
      controller_config ~n_switches:n
  in
  let u_delivered = Array.make n_switch_shards 0 in
  let u_dropped = Array.make n_switch_shards 0 in
  let t_ref = ref None in
  for i = 0 to n - 1 do
    let self = Sid.of_int i in
    let s = shard_of.(i) in
    let engine = engines.(s) in
    let env =
      {
        Edge_switch.engine;
        send_controller =
          (fun msg ->
            post ~src:s ~dst:ctrl_shard
              ~at:(Time.add (Engine.now engine) params.Params.control_link_latency)
              (fun () ->
                Service_queue.submit service (fun () ->
                    Controller.handle_message controller ~from:self msg));
            true);
        send_peer =
          (fun p msg ->
            if not (Sid.equal p self) then
              let j = Sid.to_int p in
              post ~src:s ~dst:shard_of.(j)
                ~at:(Time.add (Engine.now engine) params.Params.peer_link_latency)
                (fun () ->
                  Edge_switch.handle_peer_message (get_switch j) ~from:self msg));
        send_underlay =
          (fun pkt ->
            match pkt with
            | Packet.Encap { outer_dst; _ } -> (
                match Topology.switch_of_underlay_ip topo outer_dst with
                | Some dst_sw ->
                    let j = Sid.to_int dst_sw in
                    u_delivered.(s) <- u_delivered.(s) + 1;
                    post ~src:s ~dst:shard_of.(j)
                      ~at:
                        (Time.add (Engine.now engine) params.Params.underlay_latency)
                      (fun () -> Edge_switch.handle_underlay (get_switch j) pkt)
                | None -> u_dropped.(s) <- u_dropped.(s) + 1)
            | Packet.Plain _ -> u_dropped.(s) <- u_dropped.(s) + 1);
        deliver_local =
          (fun host pkt ->
            ignore
              (Engine.schedule engine ~after:params.Params.host_port_latency
                 (fun () ->
                   match !t_ref with
                   | Some t -> host_delivery t ~shard:s host pkt
                   | None -> ())));
        underlay_ip_of = (fun sw -> Topology.underlay_ip topo sw);
      }
    in
    let sw =
      Edge_switch.create ~tracer:tracers.(s)
        ~rng:(Prng.named rng "switch-sessions")
        env params.Params.switch_config ~self
    in
    switches.(i) <- Some sw
  done;
  let models =
    Array.init n_switch_shards (fun s ->
        Host_model.create ~flow_id_base:s ~flow_id_stride:n_switch_shards
          engines.(s)
          ~send:(fun (h : Host.t) p ->
            let loc = Sid.to_int (Topology.location topo h.Host.id) in
            ignore
              (Engine.schedule engines.(s) ~after:params.Params.host_port_latency
                 (fun () -> Edge_switch.handle_from_host (get_switch loc) h p)))
          ~arp_ttl:params.Params.arp_cache_ttl
          ~stack_delay:params.Params.host_stack_delay)
  in
  let t =
    {
      params;
      topo;
      sharder;
      n_switch_shards;
      shard_of;
      grouping;
      switches = Array.map Option.get switches;
      controller;
      models;
      recorders;
      tracers;
      u_delivered;
      u_dropped;
    }
  in
  t_ref := Some t;
  (* Attach every host to its switch (shard-local learning + adverts). *)
  List.iter
    (fun (h : Host.t) ->
      let loc = Sid.to_int (Topology.location topo h.id) in
      Edge_switch.attach_host t.switches.(loc) h)
    (Topology.hosts topo);
  Controller.set_request_hook controller (fun () ->
      Recorder.on_controller_request recorders.(ctrl_shard));
  Controller.set_update_hook controller (fun () ->
      Recorder.on_grouping_update recorders.(ctrl_shard));
  t

let bootstrap t =
  let module Grouping = Lazyctrl_grouping.Grouping in
  let groups =
    List.init (Grouping.n_groups t.grouping) (fun g ->
        (Ids.Group_id.of_int g, Grouping.members t.grouping (Ids.Group_id.of_int g)))
  in
  Controller.bootstrap_shard t.controller ~groups

let shard_of t sw = t.shard_of.(Sid.to_int sw)
let switch_shards t = t.n_switch_shards
let domains t = Shard_engine.domains t.sharder
let window t = Shard_engine.window t.sharder
let grouping_assignment t = Lazyctrl_grouping.Grouping.assignment t.grouping
let recorders t = t.recorders
let tracers t = t.tracers
let controller t = t.controller

let start_flow t ~src ~dst ~bytes ~packets =
  let src = Topology.host t.topo src and dst = Topology.host t.topo dst in
  let s = t.shard_of.(Sid.to_int (Topology.location t.topo src.Host.id)) in
  Host_model.start_flow t.models.(s) ~src ~dst ~bytes ~packets

let run t ~until = Shard_engine.run t.sharder ~until
let now t = Shard_engine.now t.sharder
let shutdown t = Shard_engine.shutdown t.sharder

let fail_switch t ?at sw =
  let i = Sid.to_int sw in
  let e = Shard_engine.engine t.sharder t.shard_of.(i) in
  match at with
  | None -> Edge_switch.set_up t.switches.(i) false
  | Some at ->
      ignore
        (Engine.schedule_at e ~at (fun () -> Edge_switch.set_up t.switches.(i) false))

let repair_switch t ?at sw =
  let i = Sid.to_int sw in
  let e = Shard_engine.engine t.sharder t.shard_of.(i) in
  let repair () =
    if not (Edge_switch.is_up t.switches.(i)) then
      Edge_switch.set_up t.switches.(i) true
  in
  match at with
  | None -> repair ()
  | Some at -> ignore (Engine.schedule_at e ~at repair)

let switch_stats_sum t =
  Array.fold_left
    (fun acc sw -> Edge_switch.stats_add acc (Edge_switch.stats sw))
    Edge_switch.stats_zero t.switches

let flows_started t =
  Array.fold_left (fun acc m -> acc + Host_model.flows_started m) 0 t.models

let flows_delivered t =
  Array.fold_left (fun acc m -> acc + Host_model.flows_delivered m) 0 t.models

let stats t =
  {
    engine = Shard_engine.stats t.sharder;
    flows_started = flows_started t;
    flows_delivered = flows_delivered t;
    underlay_delivered = Array.fold_left ( + ) 0 t.u_delivered;
    underlay_dropped = Array.fold_left ( + ) 0 t.u_dropped;
  }

(* Byte-exact observable state, concatenated in logical-shard order.
   Everything here is a pure function of (seed, topology, scenario), so
   it must not change with the domain count — the property test and the
   CI multicore matrix both compare these strings across domain counts
   and across double runs. *)
let fingerprint t =
  let buf = Buffer.create 4096 in
  let addf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  Array.iteri
    (fun s r ->
      addf "shard[%d] requests=%d updates=%d\n" s (Recorder.total_requests r)
        (Recorder.total_updates r);
      Array.iteri (fun i v -> addf "s%d.rps[%d]=%h\n" s i v) (Recorder.workload_rps r);
      Array.iteri
        (fun i v -> addf "s%d.lat[%d]=%h\n" s i v)
        (Recorder.first_latency_ms_series r);
      Array.iteri
        (fun i v -> addf "s%d.upd[%d]=%d\n" s i v)
        (Recorder.updates_per_hour r))
    t.recorders;
  let s = switch_stats_sum t in
  addf
    "sw: from_hosts=%d delivered=%d encap=%d ft=%d lfib=%d gfib=%d dup=%d \
     punt=%d fp=%d arp_l=%d arp_g=%d adv=%d ka=%d mb=%d mr=%d\n"
    s.Edge_switch.packets_from_hosts s.packets_delivered s.encap_sent
    s.flow_table_handled s.lfib_handled s.gfib_handled s.gfib_duplicates
    s.punted s.fp_drops s.arp_local_answered s.arp_group_escalated
    s.adverts_sent s.keepalives_sent s.misses_buffered s.misses_replayed;
  let cs = Controller.stats t.controller in
  addf
    "ctrl: req=%d pin=%d arp=%d sr=%d ra=%d fm=%d po=%d relay=%d flood=%d \
     inc=%d full=%d fo=%d pre=%d\n"
    cs.Controller.requests cs.packet_ins cs.arp_escalations cs.state_reports
    cs.ring_alarms cs.flow_mods_sent cs.packet_outs_sent cs.arp_relays
    cs.floods cs.grouping_updates cs.full_regroups cs.failovers_handled
    cs.preloaded_rules;
  Array.iteri
    (fun sw gid -> addf "group[%d]=%d shard=%d\n" sw gid t.shard_of.(sw))
    (Lazyctrl_grouping.Grouping.assignment t.grouping);
  addf "flows started=%d delivered=%d\n" (flows_started t) (flows_delivered t);
  let es = Shard_engine.stats t.sharder in
  addf "exchange: windows=%d messages=%d events=%d\n" es.Shard_engine.windows
    es.messages es.events;
  Buffer.contents buf
