open Lazyctrl_net
open Lazyctrl_sim
open Lazyctrl_openflow

(* See of_switch.mli for the behavioural contract. *)

type msg = unit Message.t

type env = {
  engine : Engine.t;
  send_controller : msg -> unit;
  send_underlay : Packet.t -> unit;
  deliver_local : Host.t list -> Packet.t -> unit;
  underlay_ip : Ipv4.t;
}

type stats = {
  packets_from_hosts : int;
  packets_delivered : int;
  encap_sent : int;
  flow_table_handled : int;
  punted : int;
}

type t = {
  env : env;
  table : Flow_table.t;
  ports : (int, Host.t) Hashtbl.t; (* mac -> locally attached host *)
  (* [ports]' hosts in ascending mac order, rebuilt lazily after an
     attach or detach: floods and [Deliver] walk it instead of sorting
     the port table per packet, and a flood from a remote sender hands
     it on as it is. *)
  mutable by_mac : Host.t list option;
  buffers : Buffer_pool.t;
  mutable s_from_hosts : int;
  mutable s_delivered : int;
  mutable s_encap : int;
  mutable s_flow_table : int;
  mutable s_punted : int;
}

let create env ~flow_table_capacity =
  {
    env;
    table = Flow_table.create ~capacity:flow_table_capacity ();
    ports = Hashtbl.create 32;
    by_mac = None;
    buffers = Buffer_pool.create ~ttl:(Time.of_sec 1) ();
    s_from_hosts = 0;
    s_delivered = 0;
    s_encap = 0;
    s_flow_table = 0;
    s_punted = 0;
  }

let attach_host t (h : Host.t) =
  Hashtbl.replace t.ports (Mac.to_int h.mac) h;
  t.by_mac <- None

let detach_host t (h : Host.t) =
  Hashtbl.remove t.ports (Mac.to_int h.mac);
  t.by_mac <- None

let hosts_by_mac t =
  match t.by_mac with
  | Some l -> l
  | None ->
      let l =
        List.map snd (Lazyctrl_util.Det.bindings_sorted ~cmp:Int.compare t.ports)
      in
      t.by_mac <- Some l;
      l

let now t = Engine.now t.env.engine

let deliver t ~n hosts pkt =
  t.s_delivered <- t.s_delivered + n;
  t.env.deliver_local hosts pkt

(* Flood in mac order, as one delivery: the order is visible in the event
   stream. *)
let flood_local t (eth : Packet.eth) =
  match Hashtbl.find_opt t.ports (Mac.to_int eth.src) with
  | None ->
      (* A remote sender: every attached host passes, and none is the
         sender. *)
      let n = Hashtbl.length t.ports in
      if n > 0 then deliver t ~n (hosts_by_mac t) (Packet.Plain eth)
  | Some sender ->
      let targets =
        List.filter
          (fun (h : Host.t) ->
            Ids.Tenant_id.equal h.tenant sender.tenant
            && not (Mac.equal h.mac eth.src))
          (hosts_by_mac t)
      in
      if not (List.is_empty targets) then
        deliver t ~n:(List.length targets) targets (Packet.Plain eth)

let apply_actions t packet actions =
  let eth = Packet.eth_of packet in
  List.iter
    (function
      | Action.Deliver hid -> (
          match
            List.find_opt
              (fun (h : Host.t) -> Ids.Host_id.equal h.id hid)
              (hosts_by_mac t)
          with
          | Some h -> deliver t ~n:1 [ h ] packet
          | None -> ())
      | Action.Encap ip ->
          t.s_encap <- t.s_encap + 1;
          t.env.send_underlay
            (Packet.encap ~outer_src:t.env.underlay_ip ~outer_dst:ip eth)
      | Action.Flood_local -> flood_local t eth
      | Action.To_controller ->
          (* Action punts replay controller-injected packets; those never
             come back by id, so they are not worth a buffer slot. *)
          t.s_punted <- t.s_punted + 1;
          t.env.send_controller
            (Message.Packet_in
               {
                 packet;
                 reason = Message.Action_punt;
                 buffer_id = Message.no_buffer;
               })
      | Action.Drop -> ())
    actions

let handle_from_host t (_host : Host.t) packet =
  t.s_from_hosts <- t.s_from_hosts + 1;
  let eth = Packet.eth_of packet in
  match Flow_table.lookup t.table ~now:(now t) eth with
  | Some actions ->
      t.s_flow_table <- t.s_flow_table + 1;
      apply_actions t packet actions
  | None ->
      (* Park the packet and punt headers + buffer id; a full pool falls
         back to punting the whole packet (DESIGN.md §13). *)
      t.s_punted <- t.s_punted + 1;
      let buffer_id =
        match Buffer_pool.store t.buffers ~now:(now t) packet with
        | Some id -> id
        | None -> Message.no_buffer
      in
      t.env.send_controller
        (Message.Packet_in { packet; reason = Message.No_match; buffer_id })

let handle_underlay t packet =
  match packet with
  | Packet.Plain _ -> ()
  | Packet.Encap { inner; _ } -> (
      (* Delivery to the learned port; the physical port mapping plays the
         role of the installed output rule at the last hop. *)
      match Hashtbl.find_opt t.ports (Mac.to_int inner.dst) with
      | Some host -> deliver t ~n:1 [ host ] (Packet.Plain inner)
      | None -> ())

let handle_controller_message t msg =
  match msg with
  | Message.Flow_mod (Message.Add entry) ->
      Flow_table.install t.table ~now:(now t) entry
  | Message.Flow_mod (Message.Delete m) ->
      ignore (Flow_table.remove_matching t.table m)
  | Message.Packet_out { packet; actions } -> apply_actions t packet actions
  | Message.Buffer_out { buffer_id; actions } -> (
      match Buffer_pool.take t.buffers ~now:(now t) buffer_id with
      | Some packet -> apply_actions t packet actions
      | None -> ())
  | Message.Echo_request n -> t.env.send_controller (Message.Echo_reply n)
  | Message.Hello | Message.Echo_reply _ | Message.Packet_in _
  | Message.Extension () ->
      ()

let buffer_stats t = Buffer_pool.stats t.buffers

let stats t =
  {
    packets_from_hosts = t.s_from_hosts;
    packets_delivered = t.s_delivered;
    encap_sent = t.s_encap;
    flow_table_handled = t.s_flow_table;
    punted = t.s_punted;
  }
