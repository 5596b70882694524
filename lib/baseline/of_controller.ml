open Lazyctrl_net
open Lazyctrl_sim
open Lazyctrl_openflow
module Sid = Ids.Switch_id

type msg = Of_switch.msg

type env = {
  engine : Engine.t;
  send_switch : Ids.Switch_id.t -> msg -> unit;
  send_switches : Ids.Switch_id.t list -> msg -> unit;
  n_switches : int;
}

type config = { flow_idle_timeout : Time.t }

let default_config = { flow_idle_timeout = Time.of_sec 5 }

type stats = {
  requests : int;
  packet_ins : int;
  flow_mods_sent : int;
  packet_outs_sent : int;
  buffer_outs_sent : int;
  floods : int;
  learned_macs : int;
}

type t = {
  env : env;
  config : config;
  learned : (int, Sid.t) Hashtbl.t; (* mac -> switch *)
  mutable request_hook : unit -> unit;
  mutable s_requests : int;
  mutable s_packet_ins : int;
  mutable s_flow_mods : int;
  mutable s_packet_outs : int;
  mutable s_buffer_outs : int;
  mutable s_floods : int;
}

let create env config =
  {
    env;
    config;
    learned = Hashtbl.create 1024;
    request_hook = (fun () -> ());
    s_requests = 0;
    s_packet_ins = 0;
    s_flow_mods = 0;
    s_packet_outs = 0;
    s_buffer_outs = 0;
    s_floods = 0;
  }

let set_request_hook t f = t.request_hook <- f

let locate t mac = Hashtbl.find_opt t.learned (Mac.to_int mac)

let underlay_ip_of sw = Ipv4.of_switch_id (Sid.to_int sw)

let packet_out t sw packet actions =
  t.s_packet_outs <- t.s_packet_outs + 1;
  t.env.send_switch sw (Message.Packet_out { packet; actions })

(* Replies to the punting switch release the parked packet by buffer id
   when the punt was buffered; copies aimed at other switches must carry
   the packet — only the punting switch holds the buffer. *)
let reply_to_punt t sw ~buffer_id packet actions =
  if buffer_id <> Message.no_buffer then begin
    t.s_buffer_outs <- t.s_buffer_outs + 1;
    t.env.send_switch sw (Message.Buffer_out { buffer_id; actions })
  end
  else packet_out t sw packet actions

(* One message to every other switch, in ascending switch order, through
   one multicast: the frame is encoded once, each link still carries its
   own copy. *)
let flood_everywhere t ~from ~buffer_id packet =
  t.s_floods <- t.s_floods + 1;
  let others = ref [] in
  for i = t.env.n_switches - 1 downto 0 do
    let sw = Sid.of_int i in
    if not (Sid.equal sw from) then begin
      t.s_packet_outs <- t.s_packet_outs + 1;
      others := sw :: !others
    end
  done;
  t.env.send_switches !others
    (Message.Packet_out { packet; actions = [ Action.Flood_local ] });
  (* Also out of the ingress switch's other local ports. *)
  reply_to_punt t from ~buffer_id packet [ Action.Flood_local ]

let handle_packet_in t ~from ~buffer_id packet =
  t.s_packet_ins <- t.s_packet_ins + 1;
  let eth = Packet.eth_of packet in
  Hashtbl.replace t.learned (Mac.to_int eth.Packet.src) from;
  if Mac.is_broadcast eth.Packet.dst then flood_everywhere t ~from ~buffer_id packet
  else
    match locate t eth.Packet.dst with
    | None -> flood_everywhere t ~from ~buffer_id packet
    | Some target when Sid.equal target from ->
        (* Same-switch pair: have the switch put it out the local ports. *)
        reply_to_punt t from ~buffer_id packet [ Action.Flood_local ]
    | Some target ->
        t.s_flow_mods <- t.s_flow_mods + 1;
        t.env.send_switch from
          (Message.Flow_mod
             (Message.Add
                {
                  Flow_table.priority = 10;
                  ofmatch =
                    Ofmatch.exact_pair ~src:eth.Packet.src ~dst:eth.Packet.dst;
                  actions = [ Action.Encap (underlay_ip_of target) ];
                  idle_timeout = Some t.config.flow_idle_timeout;
                  hard_timeout = None;
                  cookie = 1;
                }));
        reply_to_punt t from ~buffer_id packet
          [ Action.Encap (underlay_ip_of target) ]

let handle_message t ~from msg =
  match msg with
  | Message.Packet_in { packet; buffer_id; _ } ->
      t.s_requests <- t.s_requests + 1;
      t.request_hook ();
      handle_packet_in t ~from ~buffer_id packet
  | Message.Echo_reply _ | Message.Hello | Message.Echo_request _
  | Message.Packet_out _ | Message.Buffer_out _ | Message.Flow_mod _
  | Message.Extension () ->
      ()

let stats t =
  {
    requests = t.s_requests;
    packet_ins = t.s_packet_ins;
    flow_mods_sent = t.s_flow_mods;
    packet_outs_sent = t.s_packet_outs;
    buffer_outs_sent = t.s_buffer_outs;
    floods = t.s_floods;
    learned_macs = Hashtbl.length t.learned;
  }
