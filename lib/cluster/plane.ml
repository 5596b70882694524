open Lazyctrl_net
open Lazyctrl_sim
open Lazyctrl_topo
open Lazyctrl_openflow
open Lazyctrl_switch
open Lazyctrl_controller
open Lazyctrl_core
module Prng = Lazyctrl_util.Prng
module Det = Lazyctrl_util.Det
module Sid = Ids.Switch_id
module Gid = Ids.Group_id

type t = {
  params : Params.t;
  controller_config : Controller.config;
  engine : Engine.t;
  topo : Topology.t;
  underlay : Underlay.t;
  hosts : Host_model.t;
  rng : Prng.t;
  n_members : int;
  controllers : Controller.t array;
  members : Member.t array;
  switches : Edge_switch.t array;
  up : Edge_switch.msg Channel.t array array;   (* up.(k).(i): switch i -> member k *)
  down : Edge_switch.msg Channel.t array array; (* down.(k).(i): member k -> switch i *)
  coord : Coord.t Channel.t array array;        (* coord.(k).(j): member k -> member j *)
  peer : (int * int, Edge_switch.msg Channel.t) Hashtbl.t;
  alive : bool array;
  cut : bool array;    (* partitioned off the coordination mesh *)
  uplink : int array;  (* management plane: current master per switch *)
  terms : int array;   (* management plane: mastership generation per switch *)
  loss_rng : Prng.t;
  peer_loss : Channel.loss_spec option ref;
}

let engine t = t.engine
let topology t = t.topo
let host_model t = t.hosts
let n_members t = t.n_members
let run t ~until = Engine.run ~until t.engine
let controller t k = t.controllers.(k)
let member t k = t.members.(k)
let edge_switch t sw = t.switches.(Sid.to_int sw)
let uplink_of t sw = t.uplink.(Sid.to_int sw)
let term_of t sw = t.terms.(Sid.to_int sw)

let alive_members t =
  let out = ref [] in
  for k = t.n_members - 1 downto 0 do
    if t.alive.(k) then out := k :: !out
  done;
  !out

let live_switches t =
  List.filter_map
    (fun sw ->
      let es = t.switches.(Sid.to_int sw) in
      if Edge_switch.is_up es then Some (sw, es) else None)
    (Topology.switches t.topo)

let create ?(params = Params.default)
    ?(controller_config = Controller.default_config)
    ?(member_config = Member.default_config)
    ?(coord_latency = Time.of_us 500) ~n_members ~topo () =
  if n_members < 2 then invalid_arg "Plane.create: need >= 2 members";
  let n = Topology.n_switches topo in
  let engine = Engine.create () in
  let post = Engine.post engine in
  let underlay =
    Underlay.create engine ~latency:params.Params.underlay_latency ()
  in
  let rng = Prng.create params.Params.seed in
  let loss_rng = Prng.named rng "channel-loss" in
  let peer_loss = ref params.Params.peer_loss in
  let send_ref = ref (fun (_ : Host.t) (_ : Packet.t) -> ()) in
  let hosts =
    Host_model.create engine
      ~send:(fun h p -> !send_ref h p)
      ~arp_ttl:params.Params.arp_cache_ttl
      ~stack_delay:params.Params.host_stack_delay
  in
  let deliver_local host pkt =
    ignore
      (Engine.schedule engine ~after:params.Params.host_port_latency (fun () ->
           ignore (Host_model.deliver hosts ~to_:host pkt)))
  in
  let alive = Array.make n_members true in
  let cut = Array.make n_members false in
  let uplink = Array.make n 0 in
  let terms = Array.make n 0 in
  (* Switch-facing channels carry encoded §13 frames, like Network's.  The
     coordination mesh stays value-passing: it is the management plane
     between controller processes (gossip, views, handoffs), not
     switch-facing OpenFlow, and its load is not part of the Fig. 7
     control-channel series — the documented exception in DESIGN.md §13. *)
  let mk_ctrl_channel fmt k i =
    let ch =
      Channel.create ~strict:true engine ~post
        ~latency:params.Params.control_link_latency
        ~name:(Printf.sprintf fmt k i) ()
    in
    Network.set_proto_codec ch;
    Network.apply_loss loss_rng params.Params.control_loss ch;
    ch
  in
  let up =
    Array.init n_members (fun k ->
        Array.init n (fun i -> mk_ctrl_channel "c%d-up-%d" k i))
  in
  let down =
    Array.init n_members (fun k ->
        Array.init n (fun i -> mk_ctrl_channel "c%d-down-%d" k i))
  in
  (* The coordination mesh: loss-free, only ever down under faults. *)
  let coord =
    Array.init n_members (fun k ->
        Array.init n_members (fun j ->
            Channel.create ~strict:true engine ~post ~latency:coord_latency
              ~name:(Printf.sprintf "coord-%d-%d" k j) ()))
  in
  let peer : (int * int, Edge_switch.msg Channel.t) Hashtbl.t =
    Hashtbl.create 1024
  in
  let switches : Edge_switch.t option array = Array.make n None in
  let get_switch i = Option.get switches.(i) in
  let link _ _ = (engine, post) in
  let peer_channel src dst =
    Network.peer_channel ~link params ~loss_rng ~peer_loss ~switch:get_switch
      peer (Sid.to_int src, Sid.to_int dst)
  in
  (* Management-plane claim: reject stale terms with feedback, flip the
     uplink on a winning claim and forward the Rehome to the switch on
     the new master's FIFO channel (so it precedes the config push). *)
  let rehome_claim k sw ~term =
    let i = Sid.to_int sw in
    if alive.(k) && term >= terms.(i) then begin
      if term > terms.(i) then begin
        terms.(i) <- term;
        uplink.(i) <- k
      end;
      ignore
        (Channel.send down.(k).(i)
           (Message.Extension (Proto.Rehome { term; master = k })))
    end;
    terms.(i)
  in
  let send_coord k j msg = alive.(k) && Channel.send coord.(k).(j) msg in
  (* Route a control message from member k: down the own spoke when k
     masters the switch, otherwise forwarded to the current master over
     the coordination mesh (re-routed there if the uplink moved again). *)
  let send_switch k sw msg =
    let i = Sid.to_int sw in
    if uplink.(i) = k then ignore (Channel.send down.(k).(i) msg)
    else ignore (send_coord k uplink.(i) (Coord.Fwd { from = k; dst = sw; msg }))
  in
  let oam_seq = ref 0 in
  let probe k sw =
    incr oam_seq;
    ignore
      (Channel.send down.(k).(Sid.to_int sw) (Message.Echo_request !oam_seq))
  in
  let services =
    Array.init n_members (fun _ ->
        Service_queue.create engine ~service_time:params.Params.controller_service)
  in
  let controllers =
    Array.init n_members (fun k ->
        Controller.create
          {
            Controller.engine;
            send_switch = send_switch k;
            reboot_switch =
              (fun sw ->
                ignore
                  (Engine.schedule engine ~after:params.Params.reboot_delay
                     (fun () -> Edge_switch.set_up (get_switch (Sid.to_int sw)) true)));
            request_relay = (fun _ ~via:_ -> ());
            (* ring relay is the single-controller §III-E2 path; the
               cluster re-homes instead *)
            rng = Prng.named rng (Printf.sprintf "controller-%d" k);
          }
          controller_config ~n_switches:n)
  in
  let members =
    Array.init n_members (fun k ->
        Member.create
          {
            Member.engine;
            self = k;
            n_members;
            controller = controllers.(k);
            send_coord = send_coord k;
            send_rehome = rehome_claim k;
            probe_switch = probe k;
          }
          member_config)
  in
  (* Receivers. A member spoke carries master traffic only; a slave spoke
     answers OAM echoes below the session layer, everything else from a
     stale master is discarded on arrival. *)
  Array.iteri
    (fun k per_switch ->
      Array.iteri
        (fun i ch ->
          Channel.set_receiver ch (fun msg ->
              if alive.(k) then
                if uplink.(i) = k then
                  Service_queue.submit services.(k) (fun () ->
                      if alive.(k) then
                        Controller.handle_message controllers.(k)
                          ~from:(Sid.of_int i) msg)
                else
                  match msg with
                  | Message.Echo_reply _ ->
                      Member.note_probe_reply members.(k) (Sid.of_int i)
                  | _ -> ()))
        per_switch)
    up;
  Array.iteri
    (fun k per_switch ->
      Array.iteri
        (fun i ch ->
          Channel.set_receiver ch (fun msg ->
              if uplink.(i) = k then
                Edge_switch.handle_controller_message (get_switch i) msg
              else
                match msg with
                | Message.Echo_request nonce ->
                    (* slave-spoke OAM: answered below the switch's
                       control session, proving datapath liveness *)
                    if Edge_switch.is_up (get_switch i) then
                      ignore (Channel.send up.(k).(i) (Message.Echo_reply nonce))
                | _ -> ()))
        per_switch)
    down;
  Array.iteri
    (fun k row ->
      Array.iteri
        (fun j ch ->
          Channel.set_receiver ch (fun msg ->
              if alive.(j) then
                match msg with
                | Coord.Fwd { dst; msg; _ } -> send_switch j dst msg
                | msg -> Member.handle members.(j) ~from:k msg))
        row)
    coord;
  (* Cluster hooks: gossip C-LIB deltas and unresolved ARP relays to
     every peer (raw; see Coord for the recovery story). *)
  Array.iteri
    (fun k c ->
      Controller.set_clib_delta_hook c (fun delta ->
          for j = 0 to n_members - 1 do
            if j <> k then
              ignore (send_coord k j (Coord.Clib_delta { from = k; delta }))
          done);
      Controller.set_arp_relay_hook c (fun ~origin packet ->
          for j = 0 to n_members - 1 do
            if j <> k then
              ignore (send_coord k j (Coord.Arp_relay { from = k; origin; packet }))
          done))
    controllers;
  (* Switches. *)
  for i = 0 to n - 1 do
    let self = Sid.of_int i in
    let env =
      {
        Edge_switch.engine;
        send_controller = (fun msg -> Channel.send up.(uplink.(i)).(i) msg);
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
      Edge_switch.create
        ~rng:(Prng.named rng "switch-sessions")
        env params.Params.switch_config ~self
    in
    switches.(i) <- Some sw;
    Underlay.register underlay (Topology.underlay_ip topo self) ~post (fun pkt ->
        Edge_switch.handle_underlay sw pkt)
  done;
  let t =
    {
      params;
      controller_config;
      engine;
      topo;
      underlay;
      hosts;
      rng;
      n_members;
      controllers;
      members;
      switches = Array.map Option.get switches;
      up;
      down;
      coord;
      peer;
      alive;
      cut;
      uplink;
      terms;
      loss_rng;
      peer_loss;
    }
  in
  (send_ref :=
     fun host pkt ->
       let loc = Topology.location topo host.Host.id in
       ignore
         (Engine.schedule engine ~after:params.Params.host_port_latency
            (fun () ->
              Edge_switch.handle_from_host t.switches.(Sid.to_int loc) host pkt)));
  List.iter
    (fun (h : Host.t) ->
      let loc = Sid.to_int (Topology.location topo h.id) in
      Edge_switch.attach_host t.switches.(loc) h)
    (Topology.hosts topo);
  t

let bootstrap t =
  let intensity = Network.default_intensity t.topo in
  let grouping =
    Lazyctrl_grouping.Sgi.ini_group
      ~rng:(Prng.named t.rng "ini-group")
      ~limit:t.controller_config.Controller.group_size_limit intensity
  in
  let m = t.n_members in
  let entries =
    List.init (Lazyctrl_grouping.Grouping.n_groups grouping) (fun g ->
        let owner = g mod m in
        (* initial term ≡ owner (mod m) and > 0, as if owner had claimed *)
        let term = if owner = 0 then m else owner in
        {
          Coord.v_group = Gid.of_int g;
          v_term = term;
          v_owner = owner;
          v_members = Lazyctrl_grouping.Grouping.members grouping (Gid.of_int g);
        })
  in
  (* Seed the management plane so routing is correct from the first
     message; each member's initial claim then matches (equal term). *)
  List.iter
    (fun (e : Coord.view_entry) ->
      List.iter
        (fun sw ->
          t.uplink.(Sid.to_int sw) <- e.v_owner;
          t.terms.(Sid.to_int sw) <- e.v_term)
        e.v_members)
    entries;
  Array.iter (fun mem -> Member.start mem ~initial:entries) t.members

let start_flow t ~src ~dst ~bytes ~packets =
  let src = Topology.host t.topo src and dst = Topology.host t.topo dst in
  Host_model.start_flow t.hosts ~src ~dst ~bytes ~packets

(* --- fault injection ----------------------------------------------------- *)

(* Channel states as a function of member liveness and partitions:
   recomputed wholesale after every change, so overlapping faults stay
   consistent. *)
let refresh_links t =
  for k = 0 to t.n_members - 1 do
    Array.iter
      (fun ch -> if t.alive.(k) then Channel.repair ch else Channel.fail ch)
      t.up.(k);
    Array.iter
      (fun ch -> if t.alive.(k) then Channel.repair ch else Channel.fail ch)
      t.down.(k);
    for j = 0 to t.n_members - 1 do
      if k <> j then
        if t.alive.(k) && t.alive.(j) && (not t.cut.(k)) && not t.cut.(j) then
          Channel.repair t.coord.(k).(j)
        else Channel.fail t.coord.(k).(j)
    done
  done

let kill_member t k =
  if t.alive.(k) then begin
    t.alive.(k) <- false;
    Member.stop t.members.(k);
    refresh_links t
  end

let revive_member t k =
  if not t.alive.(k) then begin
    t.alive.(k) <- true;
    t.cut.(k) <- false;
    refresh_links t;
    Member.restart t.members.(k)
  end

let partition_member t k =
  if not t.cut.(k) then begin
    t.cut.(k) <- true;
    refresh_links t
  end

let heal_member t k =
  if t.cut.(k) then begin
    t.cut.(k) <- false;
    refresh_links t
  end

let fail_switch t sw = Edge_switch.set_up t.switches.(Sid.to_int sw) false

let repair_switch t sw =
  let es = t.switches.(Sid.to_int sw) in
  if not (Edge_switch.is_up es) then Edge_switch.set_up es true

let set_control_loss t spec =
  Array.iter (Array.iter (Network.apply_loss t.loss_rng spec)) t.up;
  Array.iter (Array.iter (Network.apply_loss t.loss_rng spec)) t.down

let set_peer_loss t spec =
  t.peer_loss := spec;
  List.iter
    (fun (_, ch) -> Network.apply_loss t.loss_rng spec ch)
    (Det.bindings_sorted ~cmp:Det.pair_compare t.peer)

(* --- aggregate accounting ------------------------------------------------ *)

let switch_stats_sum t =
  Array.fold_left
    (fun acc sw -> Edge_switch.stats_add acc (Edge_switch.stats sw))
    Edge_switch.stats_zero t.switches

let ctrl_bytes_sent t =
  let sum acc arr =
    Array.fold_left (fun acc ch -> acc + Channel.bytes_sent ch) acc arr
  in
  let acc = Array.fold_left sum 0 t.up in
  Array.fold_left sum acc t.down

let reliability_stats t =
  let acc =
    Array.fold_left
      (fun acc c -> Reliable.stats_add acc (Controller.reliable_stats c))
      Reliable.stats_zero t.controllers
  in
  let acc =
    Array.fold_left
      (fun acc sw -> Reliable.stats_add acc (Edge_switch.reliable_stats sw))
      acc t.switches
  in
  Array.fold_left
    (fun acc m -> Reliable.stats_add acc (Member.reliable_stats m))
    acc t.members

let member_stats_sum t =
  Array.fold_left
    (fun (acc : Member.stats) m ->
      let s = Member.stats m in
      {
        Member.hellos_sent = acc.hellos_sent + s.hellos_sent;
        rehomes_sent = acc.rehomes_sent + s.rehomes_sent;
        adoptions = acc.adoptions + s.adoptions;
        releases = acc.releases + s.releases;
        handoffs_offered = acc.handoffs_offered + s.handoffs_offered;
        peer_deaths = acc.peer_deaths + s.peer_deaths;
        peer_revivals = acc.peer_revivals + s.peer_revivals;
        controller_failure_verdicts =
          acc.controller_failure_verdicts + s.controller_failure_verdicts;
      })
    {
      Member.hellos_sent = 0;
      rehomes_sent = 0;
      adoptions = 0;
      releases = 0;
      handoffs_offered = 0;
      peer_deaths = 0;
      peer_revivals = 0;
      controller_failure_verdicts = 0;
    }
    t.members
