open Lazyctrl_net
open Lazyctrl_sim
open Lazyctrl_graph
open Lazyctrl_topo
open Lazyctrl_traffic
open Lazyctrl_openflow
open Lazyctrl_switch
open Lazyctrl_controller
open Lazyctrl_baseline
open Lazyctrl_metrics
module Prng = Lazyctrl_util.Prng
module Det = Lazyctrl_util.Det
module Sid = Ids.Switch_id
module Tracer = Lazyctrl_trace.Tracer
module Wire = Lazyctrl_wire.Wire
module Grouping = Lazyctrl_grouping.Grouping

(* Every control-plane channel carries real bytes: messages are encoded
   through the DESIGN.md §13 wire format at send and decoded back at
   delivery, so the channels' byte counters (and the bytes/sec series
   fed from them) measure the actual frames, not estimates.  The one
   value-passing exception is the control-link relay detour in
   [send_switch], which models a neighbour hand-off without a channel. *)
let set_proto_codec ch =
  Channel.set_codec ch ~encode:(Wire.encode Proto.wire_ext)
    ~decode:(Wire.decode Proto.wire_ext)

let set_unit_codec ch =
  Channel.set_codec ch ~encode:(Wire.encode Wire.unit_ext)
    ~decode:(Wire.decode Wire.unit_ext)

type mode = Lazy | Openflow

type lazy_plane = {
  controller : Controller.t;
  switches : Edge_switch.t array;
  ctrl_up : Edge_switch.msg Channel.t array;   (* switch -> controller *)
  ctrl_down : Edge_switch.msg Channel.t array; (* controller -> switch *)
  peers : (int * int, Edge_switch.msg Channel.t) Hashtbl.t array;
      (* per sending shard: a lazily created link is registered by the
         shard that sends on it *)
  relay : (int, Sid.t) Hashtbl.t;
      (* switch under control-link failover -> via; controller shard *)
  loss_rng : Prng.t; (* parent stream for per-channel loss sub-streams *)
  peer_loss : Channel.loss_spec option ref;
      (* current spec, inherited by lazily created peer channels *)
}

type of_plane = {
  of_controller : Of_controller.t;
  of_switches : Of_switch.t array;
  of_ctrl_up : Of_switch.msg Channel.t array;
  of_ctrl_down : Of_switch.msg Channel.t array;
}

type plane = Lazy_plane of lazy_plane | Of_plane of of_plane

(* Logical shards: [switch_shards] of switches plus, when there is more
   than one, the controller's own.  With one switch shard everything —
   controller included — lives on shard 0's engine. *)
type t = {
  params : Params.t;
  topo : Topology.t;
  sharder : Shard_engine.t;
  switch_shards : int;
  ctrl_shard : int;
  shard_of : int array; (* switch -> logical shard *)
  partition : Grouping.t option; (* the frozen LCG partition, shards > 1 *)
  underlays : Underlay.t array; (* per switch shard: its senders' side *)
  models : Host_model.t array; (* per switch shard *)
  recorders : Recorder.t array; (* per logical shard, controller last *)
  tracers : Tracer.t array; (* per logical shard, controller last *)
  plane : plane;
}

type stats = {
  engine : Shard_engine.stats;
  flows_started : int;
  flows_delivered : int;
  underlay_delivered : int;
  underlay_dropped : int;
}

let engine t = Shard_engine.engine t.sharder 0
let recorder t = t.recorders.(0)
let tracer t = t.tracers.(0)
let topology t = t.topo
let host_model t = t.models.(0)
let recorders t = t.recorders
let tracers t = t.tracers
let shard_of t sw = t.shard_of.(Sid.to_int sw)
let switch_shards t = t.switch_shards
let domains t = Shard_engine.domains t.sharder
let window t = Shard_engine.window t.sharder

let mode t = match t.plane with Lazy_plane _ -> Lazy | Of_plane _ -> Openflow

(* The one transport seam: run on shard [dst]'s engine.  A same-shard
   post is a plain [Engine.schedule_at]; a cross-shard one goes through
   the exchange.  Returned as an arity-two closure so calls apply
   directly. *)
let link sharder ~src ~dst : Engine.post =
  let post ~at f = Shard_engine.post sharder ~src ~dst ~at f in
  post

(* Conservative window: no cross-shard post may undercut it, so it is the
   smallest cross-shard link latency in play. *)
let window_of (params : Params.t) =
  Time.min params.Params.control_link_latency
    (Time.min params.Params.peer_link_latency params.Params.underlay_latency)

(* Balanced greedy packing: biggest group first onto the least-loaded
   shard, ties to the lowest shard index — a pure function of the
   grouping, so identical at every domain count. *)
let assign_groups grouping ~n_shards =
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
  Array.map (fun g -> shard_of_group.(g)) (Grouping.assignment grouping)

(* A placement-derived prior intensity: switches sharing tenants will
   probably exchange traffic proportionally to the co-located VM counts. *)
let default_intensity topo =
  let n = Topology.n_switches topo in
  let b = Wgraph.Builder.create ~n in
  List.iter
    (fun tenant ->
      let sws = Topology.tenant_switches topo tenant in
      let counts =
        List.map
          (fun sw ->
            ( Sid.to_int sw,
              List.length
                (List.filter
                   (fun (h : Host.t) -> Ids.Tenant_id.equal h.tenant tenant)
                   (Topology.hosts_at topo sw)) ))
          sws
      in
      List.iter
        (fun (a, ca) ->
          List.iter
            (fun (b', cb) ->
              if a < b' then
                Wgraph.Builder.add_edge b a b' (Float.of_int (ca * cb)))
            counts)
        counts)
    (Topology.tenants topo);
  Wgraph.Builder.build b

(* Fast-path latency of a packet that hits warm tables: two host ports
   plus (for a remote destination) one underlay traversal. *)
let fast_path_latency t ~src ~dst =
  let two_ports = Time.scale t.params.Params.host_port_latency 2.0 in
  if Sid.equal (Topology.location t.topo src) (Topology.location t.topo dst) then
    two_ports
  else Time.add two_ports t.params.Params.underlay_latency

let record_delivery t ~shard (meta : Host_model.flow_meta) ~delivered_at =
  let r = t.recorders.(shard) in
  Recorder.record_first_packet_latency r (Time.diff delivered_at meta.started);
  if meta.Host_model.packets > 1 then
    Recorder.record_fast_path_latency r
      ~n:(meta.Host_model.packets - 1)
      (fast_path_latency t ~src:meta.Host_model.src ~dst:meta.Host_model.dst)

(* Frame delivered on a host port of a shard-[shard] switch: dispatch to
   the shard's host model and record latency measurements.  A first
   delivery of a flow another shard started posts a receipt carrying
   the delivery time back to the owner, which holds the flow metadata
   and the recorder the sample belongs to (never at one shard). *)
let host_delivery t ~shard host pkt =
  let now = Engine.now (Shard_engine.engine t.sharder shard) in
  match Host_model.deliver t.models.(shard) ~to_:host pkt with
  | Host_model.Data_first meta -> record_delivery t ~shard meta ~delivered_at:now
  | Host_model.Data_remote id ->
      let owner = id mod t.switch_shards in
      Shard_engine.post t.sharder ~src:shard ~dst:owner
        ~at:(Time.add now (Shard_engine.window t.sharder))
        (fun () ->
          match Host_model.complete_remote t.models.(owner) id with
          | Some meta -> record_delivery t ~shard:owner meta ~delivered_at:now
          | None -> ())
  | Host_model.Data_duplicate | Host_model.Arp_handled | Host_model.Not_for_host
    ->
      ()

(* Attach (or clear) a loss model; the sub-stream is keyed by the channel
   name, so the draw sequence of one channel never depends on another. *)
let apply_loss loss_rng spec ch =
  match spec with
  | None -> Channel.clear_loss ch
  | Some spec ->
      Channel.set_loss ch ~rng:(Prng.named loss_rng ("loss:" ^ Channel.name ch)) spec

(* The directed peer link [key] = (src, dst), created on first use with
   the plane's current peer loss and registered in [peer]. *)
let peer_channel ~link params ~loss_rng ~peer_loss ~switch peer key =
  match Hashtbl.find_opt peer key with
  | Some ch -> ch
  | None ->
      let src, dst = key in
      let engine, post = link src dst in
      let ch =
        Channel.create ~strict:true engine ~post
          ~latency:params.Params.peer_link_latency
          ~name:(Printf.sprintf "peer-%d-%d" src dst)
          ()
      in
      set_proto_codec ch;
      apply_loss loss_rng !peer_loss ch;
      Channel.set_receiver ch (fun msg ->
          Edge_switch.handle_peer_message (switch dst) ~from:(Sid.of_int src)
            msg);
      Hashtbl.replace peer key ch;
      ch

(* The sending switch's engine and the post towards the receiving one. *)
let peer_link sharder shard_of src dst =
  let s = shard_of.(src) in
  (Shard_engine.engine sharder s, link sharder ~src:s ~dst:shard_of.(dst))

let make_lazy_plane ~params ~controller_config ~tracers ~sharder ~ctrl_shard
    ~shard_of ~topo ~underlays ~deliver_local =
  let n = Topology.n_switches topo in
  let engine_of = Shard_engine.engine sharder in
  let ctrl_engine = engine_of ctrl_shard in
  let rng = Prng.create params.Params.seed in
  let loss_rng = Prng.named rng "channel-loss" in
  let peer_loss = ref params.Params.peer_loss in
  let switches : Edge_switch.t option array = Array.make n None in
  let get_switch i = Option.get switches.(i) in
  let ctrl_channel dir i ~src ~dst =
    let ch =
      Channel.create ~strict:true (engine_of src) ~post:(link sharder ~src ~dst)
        ~latency:params.Params.control_link_latency
        ~name:(Printf.sprintf "ctrl-%s-%d" dir i) ()
    in
    set_proto_codec ch;
    apply_loss loss_rng params.Params.control_loss ch;
    ch
  in
  let ctrl_up =
    Array.init n (fun i -> ctrl_channel "up" i ~src:shard_of.(i) ~dst:ctrl_shard)
  in
  let ctrl_down =
    Array.init n (fun i -> ctrl_channel "down" i ~src:ctrl_shard ~dst:shard_of.(i))
  in
  let peers = Array.map (fun _ -> Hashtbl.create 1024) underlays in
  let peer_link = peer_link sharder shard_of in
  let peer_channel src dst =
    let src = Sid.to_int src in
    peer_channel ~link:peer_link params ~loss_rng ~peer_loss ~switch:get_switch
      peers.(shard_of.(src)) (src, Sid.to_int dst)
  in
  let relay = Hashtbl.create 8 in
  let service =
    Service_queue.create ctrl_engine ~service_time:params.Params.controller_service
  in
  (* Controller -> switch action after [after], on the switch's shard. *)
  let post_switch i ~after f =
    Shard_engine.post sharder ~src:ctrl_shard ~dst:shard_of.(i)
      ~at:(Time.add (Engine.now ctrl_engine) after) f
  in
  let controller_env =
    {
      Controller.engine = ctrl_engine;
      send_switch =
        (fun sw msg ->
          let i = Sid.to_int sw in
          match Hashtbl.find_opt relay i with
          | Some _ when not (Channel.is_up ctrl_down.(i)) ->
              (* Controller → neighbour over its control link, neighbour →
                 switch over the peer link; modelled as the combined
                 latency with direct hand-off. *)
              post_switch i
                ~after:
                  (Time.add params.Params.control_link_latency
                     params.Params.peer_link_latency)
                (fun () -> Edge_switch.handle_controller_message (get_switch i) msg)
          | _ -> ignore (Channel.send ctrl_down.(i) msg));
      reboot_switch =
        (fun sw ->
          let i = Sid.to_int sw in
          post_switch i ~after:params.Params.reboot_delay (fun () ->
              Edge_switch.set_up (get_switch i) true));
      request_relay =
        (fun sw ~via ->
          let i = Sid.to_int sw in
          (match via with
          | Some v -> Hashtbl.replace relay i v
          | None -> Hashtbl.remove relay i);
          if shard_of.(i) = ctrl_shard then
            Edge_switch.set_control_relay (get_switch i) via
          else
            post_switch i ~after:params.Params.control_link_latency (fun () ->
                Edge_switch.set_control_relay (get_switch i) via));
      rng = Prng.named rng "controller";
    }
  in
  let controller =
    Controller.create ~tracer:tracers.(ctrl_shard) controller_env
      controller_config ~n_switches:n
  in
  Array.iteri
    (fun i ch ->
      Channel.set_receiver ch (fun msg ->
          Service_queue.submit service (fun () ->
              Controller.handle_message controller ~from:(Sid.of_int i) msg)))
    ctrl_up;
  for i = 0 to n - 1 do
    let self = Sid.of_int i in
    let s = shard_of.(i) in
    let env =
      {
        Edge_switch.engine = engine_of s;
        send_controller = (fun msg -> Channel.send ctrl_up.(i) msg);
        send_peer =
          (fun p msg ->
            if not (Sid.equal p self) then
              ignore (Channel.send (peer_channel self p) msg));
        send_underlay = (fun pkt -> ignore (Underlay.send underlays.(s) pkt));
        deliver_local = deliver_local s;
        underlay_ip_of = (fun sw -> Topology.underlay_ip topo sw);
      }
    in
    let sw =
      Edge_switch.create ~tracer:tracers.(s)
        ~rng:(Prng.named rng "switch-sessions")
        env params.Params.switch_config ~self
    in
    switches.(i) <- Some sw;
    Array.iteri
      (fun u underlay ->
        Underlay.register underlay (Topology.underlay_ip topo self)
          ~post:(link sharder ~src:u ~dst:s)
          (fun pkt -> Edge_switch.handle_underlay sw pkt))
      underlays;
    Channel.set_receiver ctrl_down.(i) (fun msg ->
        Edge_switch.handle_controller_message sw msg)
  done;
  {
    controller;
    switches = Array.map Option.get switches;
    ctrl_up;
    ctrl_down;
    peers;
    relay;
    loss_rng;
    peer_loss;
  }

(* The baseline plane stays on one engine: shard 0. *)
let make_of_plane ~params ~of_config ~sharder ~topo ~underlay ~deliver_local =
  let n = Topology.n_switches topo in
  let engine = Shard_engine.engine sharder 0 in
  let post = link sharder ~src:0 ~dst:0 in
  let switches : Of_switch.t option array = Array.make n None in
  let ctrl_channel dir i =
    let ch =
      Channel.create ~strict:true engine ~post
        ~latency:params.Params.control_link_latency
        ~name:(Printf.sprintf "of-ctrl-%s-%d" dir i) ()
    in
    set_unit_codec ch;
    ch
  in
  let ctrl_up = Array.init n (ctrl_channel "up") in
  let ctrl_down = Array.init n (ctrl_channel "down") in
  let service =
    Service_queue.create engine ~service_time:params.Params.of_controller_service
  in
  let controller =
    Of_controller.create
      { Of_controller.engine; send_switch =
          (fun sw msg -> ignore (Channel.send ctrl_down.(Sid.to_int sw) msg));
        n_switches = n }
      of_config
  in
  Array.iteri
    (fun i ch ->
      Channel.set_receiver ch (fun msg ->
          Service_queue.submit service (fun () ->
              Of_controller.handle_message controller ~from:(Sid.of_int i) msg)))
    ctrl_up;
  for i = 0 to n - 1 do
    let self = Sid.of_int i in
    let env =
      {
        Of_switch.engine;
        send_controller = (fun msg -> ignore (Channel.send ctrl_up.(i) msg));
        send_underlay = (fun pkt -> ignore (Underlay.send underlay pkt));
        deliver_local = deliver_local 0;
        underlay_ip = Topology.underlay_ip topo self;
      }
    in
    let sw = Of_switch.create env ~flow_table_capacity:params.Params.flow_table_capacity in
    switches.(i) <- Some sw;
    Underlay.register underlay (Topology.underlay_ip topo self) ~post (fun pkt ->
        Of_switch.handle_underlay sw pkt);
    Channel.set_receiver ctrl_down.(i) (fun msg ->
        Of_switch.handle_controller_message sw msg)
  done;
  {
    of_controller = controller;
    of_switches = Array.map Option.get switches;
    of_ctrl_up = ctrl_up;
    of_ctrl_down = ctrl_down;
  }

let create ?(params = Params.default)
    ?(controller_config = Controller.default_config)
    ?(of_config = Of_controller.default_config)
    ?(tracer = Tracer.disabled) ?(shards = 1) ?domains ~mode ~topo ~horizon () =
  let n = Topology.n_switches topo in
  let switch_shards = max 1 (min shards n) in
  (match mode with
  | Openflow when switch_shards > 1 ->
      invalid_arg "Network.create: the OpenFlow plane runs on one shard"
  | Lazy | Openflow -> ());
  let n_logical = if switch_shards = 1 then 1 else switch_shards + 1 in
  let ctrl_shard = n_logical - 1 in
  let sharder =
    Shard_engine.create ?domains ~shards:n_logical ~window:(window_of params) ()
  in
  let engine_of = Shard_engine.engine sharder in
  (* The static LCG partition, frozen for the run: the grouping daemon
     stays inert under [bootstrap_shard], so switches never migrate
     shards. *)
  let partition, shard_of =
    if switch_shards = 1 then (None, Array.make n 0)
    else
      let g =
        Lazyctrl_grouping.Sgi.ini_group
          ~rng:(Prng.named (Prng.create params.Params.seed) "shard-grouping")
          ~limit:controller_config.Controller.group_size_limit
          (default_intensity topo)
      in
      (Some g, assign_groups g ~n_shards:switch_shards)
  in
  let tracers =
    Array.init n_logical (fun s -> if s = 0 then tracer else Tracer.derive tracer)
  in
  let underlays =
    Array.init switch_shards (fun s ->
        Underlay.create (engine_of s) ~latency:params.Params.underlay_latency ())
  in
  let recorders =
    Array.init n_logical (fun s -> Recorder.create (engine_of s) ~horizon ())
  in
  (* The host models' send callback needs the plane; tie the knot with a
     forward reference. *)
  let send_ref = ref (fun (_ : Host.t) (_ : Packet.t) -> ()) in
  let models =
    Array.init switch_shards (fun s ->
        Host_model.create ~flow_id_base:s ~flow_id_stride:switch_shards
          (engine_of s)
          ~send:(fun h p -> !send_ref h p)
          ~arp_ttl:params.Params.arp_cache_ttl
          ~stack_delay:params.Params.host_stack_delay)
  in
  let t_ref = ref None in
  let deliver_local s host pkt =
    match !t_ref with
    | Some t ->
        ignore
          (Engine.schedule (engine_of s) ~after:params.Params.host_port_latency
             (fun () -> host_delivery t ~shard:s host pkt))
    | None -> ()
  in
  let plane =
    match mode with
    | Lazy ->
        Lazy_plane
          (make_lazy_plane ~params ~controller_config ~tracers ~sharder
             ~ctrl_shard ~shard_of ~topo ~underlays ~deliver_local)
    | Openflow ->
        Of_plane
          (make_of_plane ~params ~of_config ~sharder ~topo
             ~underlay:underlays.(0) ~deliver_local)
  in
  let t =
    {
      params;
      topo;
      sharder;
      switch_shards;
      ctrl_shard;
      shard_of;
      partition;
      underlays;
      models;
      recorders;
      tracers;
      plane;
    }
  in
  t_ref := Some t;
  (* Host frames enter the network at the host's current edge switch after
     the port latency, on that switch's shard. *)
  (send_ref :=
     fun host pkt ->
       let loc = Sid.to_int (Topology.location topo host.Host.id) in
       ignore
         (Engine.schedule (engine_of shard_of.(loc))
            ~after:params.Params.host_port_latency (fun () ->
              match t.plane with
              | Lazy_plane p -> Edge_switch.handle_from_host p.switches.(loc) host pkt
              | Of_plane p -> Of_switch.handle_from_host p.of_switches.(loc) host pkt)));
  (* Attach every host to its switch. *)
  List.iter
    (fun (h : Host.t) ->
      let loc = Sid.to_int (Topology.location topo h.id) in
      match t.plane with
      | Lazy_plane p -> Edge_switch.attach_host p.switches.(loc) h
      | Of_plane p -> Of_switch.attach_host p.of_switches.(loc) h)
    (Topology.hosts topo);
  (* Wire measurement taps. *)
  (* The ctrl-bytes series counts controller-facing channels only (both
     directions); peer links keep their own per-channel byte counters but
     are switch-to-switch load, not controller load. The hook fires once
     per encoded send, at the instant the channel's own [bytes_sent]
     grows, and charges the sending shard's recorder and tracer, so their
     totals equal the channel counters exactly — the DESIGN.md §13
     cross-check. *)
  let tap_ctrl_bytes s ch =
    Channel.set_wire_hook ch (fun n ->
        Recorder.on_control_bytes recorders.(s) n;
        Tracer.add_ctrl_bytes tracers.(s) n)
  in
  let ctrl_recorder = recorders.(ctrl_shard) in
  (match t.plane with
  | Lazy_plane p ->
      Array.iteri (fun i ch -> tap_ctrl_bytes shard_of.(i) ch) p.ctrl_up;
      Array.iter (tap_ctrl_bytes ctrl_shard) p.ctrl_down;
      Controller.set_request_hook p.controller (fun () ->
          Recorder.on_controller_request ctrl_recorder);
      Controller.set_update_hook p.controller (fun () ->
          Recorder.on_grouping_update ctrl_recorder)
  | Of_plane p ->
      Array.iter (tap_ctrl_bytes 0) p.of_ctrl_up;
      Array.iter (tap_ctrl_bytes 0) p.of_ctrl_down;
      Of_controller.set_request_hook p.of_controller (fun () ->
          Recorder.on_controller_request ctrl_recorder));
  t

let bootstrap t ?intensity () =
  match (t.plane, t.partition) with
  | Of_plane _, _ -> ()
  | Lazy_plane p, None ->
      let intensity =
        match intensity with Some g -> g | None -> default_intensity t.topo
      in
      Controller.bootstrap p.controller ~intensity
  | Lazy_plane p, Some g ->
      if Option.is_some intensity then
        invalid_arg "Network.bootstrap: a sharded network keeps its frozen partition";
      Controller.bootstrap_shard p.controller
        ~groups:
          (List.init (Grouping.n_groups g) (fun k ->
               let gid = Ids.Group_id.of_int k in
               (gid, Grouping.members g gid)))

let start_flow t ~src ~dst ~bytes ~packets =
  let src = Topology.host t.topo src and dst = Topology.host t.topo dst in
  let s = t.shard_of.(Sid.to_int (Topology.location t.topo src.Host.id)) in
  Host_model.start_flow t.models.(s) ~src ~dst ~bytes ~packets

let replay t trace =
  if t.switch_shards > 1 then
    invalid_arg "Network.replay: feed a sharded network with start_flow";
  ignore
    (Replay.start (engine t) trace ~on_flow:(fun f ->
         start_flow t ~src:f.Trace.src ~dst:f.Trace.dst ~bytes:f.Trace.bytes
           ~packets:f.Trace.packets))

let run t ~until = Shard_engine.run t.sharder ~until
let shutdown t = Shard_engine.shutdown t.sharder

let lazy_controller t =
  match t.plane with Lazy_plane p -> Some p.controller | Of_plane _ -> None

let of_controller t =
  match t.plane with Of_plane p -> Some p.of_controller | Lazy_plane _ -> None

let edge_switch t sw =
  match t.plane with
  | Lazy_plane p -> Some p.switches.(Sid.to_int sw)
  | Of_plane _ -> None

let of_switch t sw =
  match t.plane with
  | Of_plane p -> Some p.of_switches.(Sid.to_int sw)
  | Lazy_plane _ -> None

let switch_stats_sum t =
  match t.plane with
  | Of_plane _ -> Edge_switch.stats_zero
  | Lazy_plane p ->
      Array.fold_left
        (fun acc sw -> Edge_switch.stats_add acc (Edge_switch.stats sw))
        Edge_switch.stats_zero p.switches

let deploy_host t host ~at =
  Topology.add_host t.topo host ~at;
  match t.plane with
  | Lazy_plane p -> Edge_switch.attach_host p.switches.(Sid.to_int at) host
  | Of_plane p -> Of_switch.attach_host p.of_switches.(Sid.to_int at) host

let migrate_host t hid ~to_ =
  let host = Topology.host t.topo hid in
  if t.shard_of.(Sid.to_int (Topology.location t.topo hid)) <> shard_of t to_ then
    invalid_arg "Network.migrate_host: the host would change shards";
  let from = Topology.migrate t.topo hid ~to_ in
  match t.plane with
  | Lazy_plane p ->
      Edge_switch.detach_host p.switches.(Sid.to_int from) hid;
      Edge_switch.attach_host p.switches.(Sid.to_int to_) host
  | Of_plane p ->
      Of_switch.detach_host p.of_switches.(Sid.to_int from) host;
      Of_switch.attach_host p.of_switches.(Sid.to_int to_) host

(* --- failure injection -------------------------------------------------- *)

let with_lazy t f = match t.plane with Lazy_plane p -> f p | Of_plane _ -> ()

let fail_switch t sw =
  with_lazy t (fun p -> Edge_switch.set_up p.switches.(Sid.to_int sw) false)

let repair_switch t sw =
  with_lazy t (fun p ->
      let es = p.switches.(Sid.to_int sw) in
      if not (Edge_switch.is_up es) then Edge_switch.set_up es true)

let fail_control_link t sw =
  with_lazy t (fun p ->
      Channel.fail p.ctrl_up.(Sid.to_int sw);
      Channel.fail p.ctrl_down.(Sid.to_int sw))

let repair_control_link t sw =
  with_lazy t (fun p ->
      let i = Sid.to_int sw in
      Channel.repair p.ctrl_up.(i);
      Channel.repair p.ctrl_down.(i);
      Hashtbl.remove p.relay i;
      Edge_switch.set_control_relay p.switches.(i) None)

let peer_key a b = (Sid.to_int a, Sid.to_int b)
let peer_table t (p : lazy_plane) (src, _) = p.peers.(t.shard_of.(src))

(* Every peer channel created so far, by sending shard then key. *)
let peer_bindings (p : lazy_plane) =
  List.concat_map
    (Det.bindings_sorted ~cmp:Det.pair_compare)
    (Array.to_list p.peers)

(* Creates a missing link before failing it, so future sends on the pair
   also drop. *)
let fail_peer_key t (p : lazy_plane) key =
  Channel.fail
    (peer_channel
       ~link:(peer_link t.sharder t.shard_of)
       t.params ~loss_rng:p.loss_rng ~peer_loss:p.peer_loss
       ~switch:(Array.get p.switches) (peer_table t p key) key)

let fail_peer_link t a b =
  with_lazy t (fun p ->
      List.iter (fail_peer_key t p) [ peer_key a b; peer_key b a ])

let fail_peer_link_directed t ~src ~dst =
  with_lazy t (fun p -> fail_peer_key t p (peer_key src dst))

let repair_peer_link t a b =
  with_lazy t (fun p ->
      List.iter
        (fun key ->
          match Hashtbl.find_opt (peer_table t p key) key with
          | Some ch -> Channel.repair ch
          | None -> ())
        [ peer_key a b; peer_key b a ])

let underlay_of t sw = t.underlays.(shard_of t sw)

let fail_data_path t ~src ~dst ~notify =
  Underlay.fail_path (underlay_of t src)
    ~src:(Topology.underlay_ip t.topo src)
    ~dst:(Topology.underlay_ip t.topo dst);
  if notify then
    with_lazy t (fun p -> Controller.notify_path_failure p.controller ~src ~dst)

let repair_data_path t ~src ~dst =
  Underlay.repair_path (underlay_of t src)
    ~src:(Topology.underlay_ip t.topo src)
    ~dst:(Topology.underlay_ip t.topo dst)

(* --- channel loss injection ---------------------------------------------- *)

let set_control_loss t spec =
  with_lazy t (fun p ->
      Array.iter (apply_loss p.loss_rng spec) p.ctrl_up;
      Array.iter (apply_loss p.loss_rng spec) p.ctrl_down)

let set_peer_loss t spec =
  with_lazy t (fun p ->
      p.peer_loss := spec;
      List.iter (fun (_, ch) -> apply_loss p.loss_rng spec ch) (peer_bindings p))

(* --- aggregate channel / reliability accounting --------------------------- *)

type link_totals = {
  links_sent : int;
  links_delivered : int;
  links_dropped : int;
  links_lost : int;
  links_duplicated : int;
  links_bytes_sent : int;
  links_bytes_delivered : int;
}

let link_zero =
  {
    links_sent = 0;
    links_delivered = 0;
    links_dropped = 0;
    links_lost = 0;
    links_duplicated = 0;
    links_bytes_sent = 0;
    links_bytes_delivered = 0;
  }

let link_add acc ch =
  {
    links_sent = acc.links_sent + Channel.sent ch;
    links_delivered = acc.links_delivered + Channel.delivered ch;
    links_dropped = acc.links_dropped + Channel.dropped ch;
    links_lost = acc.links_lost + Channel.lost ch;
    links_duplicated = acc.links_duplicated + Channel.duplicated ch;
    links_bytes_sent = acc.links_bytes_sent + Channel.bytes_sent ch;
    links_bytes_delivered =
      acc.links_bytes_delivered + Channel.bytes_delivered ch;
  }

let link_stats t =
  match t.plane with
  | Lazy_plane p ->
      let acc = Array.fold_left link_add link_zero p.ctrl_up in
      let acc = Array.fold_left link_add acc p.ctrl_down in
      List.fold_left (fun acc (_, ch) -> link_add acc ch) acc (peer_bindings p)
  | Of_plane p ->
      let acc = Array.fold_left link_add link_zero p.of_ctrl_up in
      Array.fold_left link_add acc p.of_ctrl_down

(* Bytes sent on the controller-facing channels only — by construction
   equal to the recorders' summed [total_ctrl_bytes] and the tracers'
   summed [ctrl_bytes] (the wire hook fires exactly when these counters
   grow); the cross-check test pins the equality. *)
let ctrl_bytes_sent t =
  let sum acc arr =
    Array.fold_left (fun acc ch -> acc + Channel.bytes_sent ch) acc arr
  in
  match t.plane with
  | Lazy_plane p -> sum (sum 0 p.ctrl_up) p.ctrl_down
  | Of_plane p -> sum (sum 0 p.of_ctrl_up) p.of_ctrl_down

let reliability_stats t =
  match t.plane with
  | Of_plane _ -> Reliable.stats_zero
  | Lazy_plane p ->
      Array.fold_left
        (fun acc sw -> Reliable.stats_add acc (Edge_switch.reliable_stats sw))
        (Controller.reliable_stats p.controller)
        p.switches

(* --- shard accounting ------------------------------------------------------ *)

let sum_models f t = Array.fold_left (fun acc m -> acc + f m) 0 t.models
let sum_underlays f t = Array.fold_left (fun acc u -> acc + f u) 0 t.underlays

let stats t =
  {
    engine = Shard_engine.stats t.sharder;
    flows_started = sum_models Host_model.flows_started t;
    flows_delivered = sum_models Host_model.flows_delivered t;
    underlay_delivered = sum_underlays Underlay.delivered t;
    underlay_dropped = sum_underlays Underlay.dropped t;
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
      addf "shard[%d] requests=%d updates=%d ctrl_bytes=%d\n" s
        (Recorder.total_requests r) (Recorder.total_updates r)
        (Recorder.total_ctrl_bytes r);
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
  Option.iter
    (fun c ->
      let cs = Controller.stats c in
      addf
        "ctrl: req=%d pin=%d arp=%d sr=%d ra=%d fm=%d po=%d relay=%d flood=%d \
         inc=%d full=%d fo=%d pre=%d\n"
        cs.Controller.requests cs.packet_ins cs.arp_escalations cs.state_reports
        cs.ring_alarms cs.flow_mods_sent cs.packet_outs_sent cs.arp_relays
        cs.floods cs.grouping_updates cs.full_regroups cs.failovers_handled
        cs.preloaded_rules)
    (lazy_controller t);
  Option.iter
    (fun g ->
      Array.iteri
        (fun sw gid -> addf "group[%d]=%d shard=%d\n" sw gid t.shard_of.(sw))
        (Grouping.assignment g))
    t.partition;
  let l = link_stats t in
  addf "links: sent=%d delivered=%d dropped=%d lost=%d dup=%d bytes=%d\n"
    l.links_sent l.links_delivered l.links_dropped l.links_lost
    l.links_duplicated l.links_bytes_sent;
  let st = stats t in
  addf "flows started=%d delivered=%d\n" st.flows_started st.flows_delivered;
  addf "exchange: windows=%d messages=%d events=%d\n" st.engine.Shard_engine.windows
    st.engine.messages st.engine.events;
  Buffer.contents buf
