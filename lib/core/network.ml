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
  peer : (int * int, Edge_switch.msg Channel.t) Hashtbl.t;
  relay : (int, Sid.t) Hashtbl.t; (* switch under control-link failover -> via *)
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

type t = {
  params : Params.t;
  engine : Engine.t;
  tracer : Tracer.t;
  topo : Topology.t;
  underlay : Underlay.t;
  recorder : Recorder.t;
  hosts : Host_model.t;
  plane : plane;
}

let engine t = t.engine
let recorder t = t.recorder
let tracer t = t.tracer
let topology t = t.topo
let host_model t = t.hosts
let underlay t = t.underlay

let mode t = match t.plane with Lazy_plane _ -> Lazy | Of_plane _ -> Openflow

(* Fast-path latency of a packet that hits warm tables: two host ports
   plus (for a remote destination) one underlay traversal. *)
let fast_path_latency t ~src ~dst =
  let two_ports = Time.scale t.params.Params.host_port_latency 2.0 in
  if Sid.equal (Topology.location t.topo src) (Topology.location t.topo dst) then
    two_ports
  else Time.add two_ports t.params.Params.underlay_latency

(* Frame delivered on a host port: dispatch to the host model and record
   latency measurements. *)
let host_delivery t host pkt =
  match Host_model.deliver t.hosts ~to_:host pkt with
  | Host_model.Data_first meta ->
      let lat = Time.diff (Engine.now t.engine) meta.Host_model.started in
      Recorder.record_first_packet_latency t.recorder lat;
      if meta.Host_model.packets > 1 then
        Recorder.record_fast_path_latency t.recorder
          ~n:(meta.Host_model.packets - 1)
          (fast_path_latency t ~src:meta.Host_model.src ~dst:meta.Host_model.dst)
  | Host_model.Data_remote _ (* impossible at stride 1 *)
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
let peer_channel engine params ~loss_rng ~peer_loss ~switch peer key =
  match Hashtbl.find_opt peer key with
  | Some ch -> ch
  | None ->
      let ch =
        Channel.create ~strict:true engine
          ~latency:params.Params.peer_link_latency
          ~name:(Printf.sprintf "peer-%d-%d" (fst key) (snd key))
          ()
      in
      set_proto_codec ch;
      apply_loss loss_rng !peer_loss ch;
      Channel.set_receiver ch (fun msg ->
          Edge_switch.handle_peer_message (switch (snd key))
            ~from:(Sid.of_int (fst key)) msg);
      Hashtbl.replace peer key ch;
      ch

let make_lazy_plane ~params ~controller_config ~tracer ~engine ~topo ~underlay
    ~deliver_local =
  let n = Topology.n_switches topo in
  let rng = Prng.create params.Params.seed in
  let loss_rng = Prng.named rng "channel-loss" in
  let peer_loss = ref params.Params.peer_loss in
  let switches : Edge_switch.t option array = Array.make n None in
  let get_switch i = Option.get switches.(i) in
  let ctrl_up =
    Array.init n (fun i ->
        let ch =
          Channel.create ~strict:true engine
            ~latency:params.Params.control_link_latency
            ~name:(Printf.sprintf "ctrl-up-%d" i) ()
        in
        set_proto_codec ch;
        apply_loss loss_rng params.Params.control_loss ch;
        ch)
  in
  let ctrl_down =
    Array.init n (fun i ->
        let ch =
          Channel.create ~strict:true engine
            ~latency:params.Params.control_link_latency
            ~name:(Printf.sprintf "ctrl-down-%d" i) ()
        in
        set_proto_codec ch;
        apply_loss loss_rng params.Params.control_loss ch;
        ch)
  in
  let peer : (int * int, Edge_switch.msg Channel.t) Hashtbl.t =
    Hashtbl.create 1024
  in
  let peer_channel src dst =
    peer_channel engine params ~loss_rng ~peer_loss ~switch:get_switch peer
      (Sid.to_int src, Sid.to_int dst)
  in
  let relay = Hashtbl.create 8 in
  let service =
    Service_queue.create engine ~service_time:params.Params.controller_service
  in
  let controller_ref = ref None in
  let controller_env =
    {
      Controller.engine;
      send_switch =
        (fun sw msg ->
          let i = Sid.to_int sw in
          match Hashtbl.find_opt relay i with
          | Some via when not (Channel.is_up ctrl_down.(i)) ->
              (* Controller → neighbour over its control link, neighbour →
                 switch over the peer link; modelled as the combined
                 latency with direct hand-off. *)
              let delay =
                Time.add params.Params.control_link_latency
                  params.Params.peer_link_latency
              in
              ignore via;
              ignore
                (Engine.schedule engine ~after:delay (fun () ->
                     Edge_switch.handle_controller_message (get_switch i) msg))
          | _ -> ignore (Channel.send ctrl_down.(i) msg));
      reboot_switch =
        (fun sw ->
          ignore
            (Engine.schedule engine ~after:params.Params.reboot_delay (fun () ->
                 Edge_switch.set_up (get_switch (Sid.to_int sw)) true)));
      request_relay =
        (fun sw ~via ->
          let i = Sid.to_int sw in
          (match via with
          | Some v -> Hashtbl.replace relay i v
          | None -> Hashtbl.remove relay i);
          Edge_switch.set_control_relay (get_switch i) via);
      rng = Prng.named rng "controller";
    }
  in
  let controller =
    Controller.create ~tracer controller_env controller_config ~n_switches:n
  in
  controller_ref := Some controller;
  Array.iteri
    (fun i ch ->
      Channel.set_receiver ch (fun msg ->
          Service_queue.submit service (fun () ->
              Controller.handle_message controller ~from:(Sid.of_int i) msg)))
    ctrl_up;
  for i = 0 to n - 1 do
    let self = Sid.of_int i in
    let env =
      {
        Edge_switch.engine;
        send_controller = (fun msg -> Channel.send ctrl_up.(i) msg);
        send_peer =
          (fun p msg ->
            if not (Sid.equal p self) then
              ignore (Channel.send (peer_channel self p) msg));
        send_underlay = (fun pkt -> ignore (Underlay.send underlay pkt));
        deliver_local;
        underlay_ip_of = (fun sw -> Topology.underlay_ip topo sw);
      }
    in
    let sw =
      Edge_switch.create ~tracer
        ~rng:(Prng.named rng "switch-sessions")
        env params.Params.switch_config ~self
    in
    switches.(i) <- Some sw;
    Underlay.register underlay (Topology.underlay_ip topo self) (fun pkt ->
        Edge_switch.handle_underlay sw pkt);
    Array.iteri
      (fun j ch ->
        if j = i then
          Channel.set_receiver ch (fun msg ->
              Edge_switch.handle_controller_message sw msg))
      ctrl_down
  done;
  {
    controller;
    switches = Array.map Option.get switches;
    ctrl_up;
    ctrl_down;
    peer;
    relay;
    loss_rng;
    peer_loss;
  }

let make_of_plane ~params ~of_config ~engine ~topo ~underlay ~deliver_local =
  let n = Topology.n_switches topo in
  let switches : Of_switch.t option array = Array.make n None in
  let ctrl_up =
    Array.init n (fun i ->
        let ch =
          Channel.create ~strict:true engine
            ~latency:params.Params.control_link_latency
            ~name:(Printf.sprintf "of-ctrl-up-%d" i) ()
        in
        set_unit_codec ch;
        ch)
  in
  let ctrl_down =
    Array.init n (fun i ->
        let ch =
          Channel.create ~strict:true engine
            ~latency:params.Params.control_link_latency
            ~name:(Printf.sprintf "of-ctrl-down-%d" i) ()
        in
        set_unit_codec ch;
        ch)
  in
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
        deliver_local;
        underlay_ip = Topology.underlay_ip topo self;
      }
    in
    let sw = Of_switch.create env ~flow_table_capacity:params.Params.flow_table_capacity in
    switches.(i) <- Some sw;
    Underlay.register underlay (Topology.underlay_ip topo self) (fun pkt ->
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
    ?(tracer = Tracer.disabled) ~mode ~topo ~horizon () =
  let engine = Engine.create () in
  let underlay =
    Underlay.create engine ~latency:params.Params.underlay_latency ()
  in
  let recorder = Recorder.create engine ~horizon () in
  (* The host model's send callback needs the plane; tie the knot with a
     forward reference. *)
  let send_ref = ref (fun (_ : Host.t) (_ : Packet.t) -> ()) in
  let hosts =
    Host_model.create engine
      ~send:(fun h p -> !send_ref h p)
      ~arp_ttl:params.Params.arp_cache_ttl
      ~stack_delay:params.Params.host_stack_delay
  in
  let t_ref = ref None in
  let deliver_local host pkt =
    match !t_ref with
    | Some t ->
        ignore
          (Engine.schedule engine ~after:params.Params.host_port_latency
             (fun () -> host_delivery t host pkt))
    | None -> ()
  in
  let plane =
    match mode with
    | Lazy ->
        Lazy_plane
          (make_lazy_plane ~params ~controller_config ~tracer ~engine ~topo
             ~underlay ~deliver_local)
    | Openflow ->
        Of_plane
          (make_of_plane ~params ~of_config ~engine ~topo ~underlay
             ~deliver_local)
  in
  let t = { params; engine; tracer; topo; underlay; recorder; hosts; plane } in
  t_ref := Some t;
  (* Host frames enter the network at the host's current edge switch after
     the port latency. *)
  (send_ref :=
     fun host pkt ->
       let loc = Topology.location topo host.Host.id in
       ignore
         (Engine.schedule engine ~after:params.Params.host_port_latency
            (fun () ->
              match t.plane with
              | Lazy_plane p ->
                  Edge_switch.handle_from_host p.switches.(Sid.to_int loc) host pkt
              | Of_plane p ->
                  Of_switch.handle_from_host p.of_switches.(Sid.to_int loc) host pkt)));
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
     grows, so recorder and tracer totals equal the channel counters
     exactly — the DESIGN.md §13 cross-check. *)
  let tap_ctrl_bytes ch =
    Channel.set_wire_hook ch (fun n ->
        Recorder.on_control_bytes recorder n;
        Tracer.add_ctrl_bytes tracer n)
  in
  (match t.plane with
  | Lazy_plane p ->
      Array.iter tap_ctrl_bytes p.ctrl_up;
      Array.iter tap_ctrl_bytes p.ctrl_down;
      Controller.set_request_hook p.controller (fun () ->
          Recorder.on_controller_request recorder);
      Controller.set_update_hook p.controller (fun () ->
          Recorder.on_grouping_update recorder)
  | Of_plane p ->
      Array.iter tap_ctrl_bytes p.of_ctrl_up;
      Array.iter tap_ctrl_bytes p.of_ctrl_down;
      Of_controller.set_request_hook p.of_controller (fun () ->
          Recorder.on_controller_request recorder));
  t

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

let bootstrap t ?intensity () =
  match t.plane with
  | Of_plane _ -> ()
  | Lazy_plane p ->
      let intensity =
        match intensity with Some g -> g | None -> default_intensity t.topo
      in
      Controller.bootstrap p.controller ~intensity

let start_flow t ~src ~dst ~bytes ~packets =
  let src = Topology.host t.topo src and dst = Topology.host t.topo dst in
  Host_model.start_flow t.hosts ~src ~dst ~bytes ~packets

let replay t trace =
  ignore
    (Replay.start t.engine trace ~on_flow:(fun f ->
         start_flow t ~src:f.Trace.src ~dst:f.Trace.dst ~bytes:f.Trace.bytes
           ~packets:f.Trace.packets))

let run t ~until = Engine.run ~until t.engine
let run_all t = Engine.run t.engine

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

(* Creates a missing link before failing it, so future sends on the pair
   also drop. *)
let fail_peer_key t (p : lazy_plane) key =
  Channel.fail
    (peer_channel t.engine t.params ~loss_rng:p.loss_rng
       ~peer_loss:p.peer_loss ~switch:(Array.get p.switches) p.peer key)

let fail_peer_link t a b =
  with_lazy t (fun p ->
      List.iter (fail_peer_key t p) [ peer_key a b; peer_key b a ])

let fail_peer_link_directed t ~src ~dst =
  with_lazy t (fun p -> fail_peer_key t p (peer_key src dst))

let repair_peer_link t a b =
  with_lazy t (fun p ->
      List.iter
        (fun key ->
          match Hashtbl.find_opt p.peer key with
          | Some ch -> Channel.repair ch
          | None -> ())
        [ peer_key a b; peer_key b a ])

let fail_data_path t ~src ~dst ~notify =
  Underlay.fail_path t.underlay
    ~src:(Topology.underlay_ip t.topo src)
    ~dst:(Topology.underlay_ip t.topo dst);
  if notify then
    with_lazy t (fun p -> Controller.notify_path_failure p.controller ~src ~dst)

let repair_data_path t ~src ~dst =
  Underlay.repair_path t.underlay
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
      List.iter
        (fun (_, ch) -> apply_loss p.loss_rng spec ch)
        (Det.bindings_sorted ~cmp:Det.pair_compare p.peer))

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
      List.fold_left
        (fun acc (_, ch) -> link_add acc ch)
        acc
        (Det.bindings_sorted ~cmp:Det.pair_compare p.peer)
  | Of_plane p ->
      let acc = Array.fold_left link_add link_zero p.of_ctrl_up in
      Array.fold_left link_add acc p.of_ctrl_down

(* Bytes sent on the controller-facing channels only — by construction
   equal to the recorder's [total_ctrl_bytes] and the tracer's
   [ctrl_bytes] (the wire hook fires exactly when these counters grow);
   the cross-check test pins the equality. *)
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
