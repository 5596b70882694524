(* Tests for lazyctrl.baseline: the plain OpenFlow switch and the
   Floodlight-style reactive learning controller. *)

open Lazyctrl_net
open Lazyctrl_sim
open Lazyctrl_openflow
open Lazyctrl_baseline

let check = Alcotest.check
let sid = Ids.Switch_id.of_int
let hid = Ids.Host_id.of_int
let host ?(tenant = 0) i = Host.make ~id:(hid i) ~tenant:(Ids.Tenant_id.of_int tenant)
let data_pkt ~src ~dst = Packet.data ~src ~dst ~length:50 ()

type recorded = {
  engine : Engine.t;
  to_controller : Of_switch.msg list ref;
  to_underlay : Packet.t list ref;
  to_hosts : (Host.t list * Packet.t) list ref;  (* one per deliver_local *)
}

let make_switch ?(self = 0) () =
  let engine = Engine.create () in
  let to_controller = ref [] and to_underlay = ref [] and to_hosts = ref [] in
  let env =
    {
      Of_switch.engine;
      send_controller = (fun m -> to_controller := m :: !to_controller);
      send_underlay = (fun p -> to_underlay := p :: !to_underlay);
      deliver_local = (fun hs p -> to_hosts := (hs, p) :: !to_hosts);
      underlay_ip = Ipv4.of_switch_id self;
    }
  in
  (Of_switch.create env ~flow_table_capacity:128, { engine; to_controller; to_underlay; to_hosts })

let test_switch_punts_everything () =
  let sw, r = make_switch () in
  let h1 = host 1 and h2 = host 2 in
  Of_switch.attach_host sw h1;
  Of_switch.attach_host sw h2;
  (* Even a local destination misses without a rule: dumb data plane. *)
  Of_switch.handle_from_host sw h1 (data_pkt ~src:h1 ~dst:h2);
  check Alcotest.int "punted" 1 (List.length !(r.to_controller));
  check Alcotest.int "nothing delivered" 0 (List.length !(r.to_hosts));
  check Alcotest.int "stat" 1 (Of_switch.stats sw).Of_switch.punted

let test_switch_applies_rules () =
  let sw, r = make_switch () in
  let h1 = host 1 and h2 = host 2 in
  Of_switch.attach_host sw h1;
  Of_switch.handle_controller_message sw
    (Message.Flow_mod
       (Message.Add
          {
            Flow_table.priority = 10;
            ofmatch = Ofmatch.exact_pair ~src:h1.Host.mac ~dst:h2.Host.mac;
            actions = [ Action.Encap (Ipv4.of_switch_id 3) ];
            idle_timeout = None;
            hard_timeout = None;
            cookie = 0;
          }));
  Of_switch.handle_from_host sw h1 (data_pkt ~src:h1 ~dst:h2);
  check Alcotest.int "no punt" 0 (List.length !(r.to_controller));
  (match !(r.to_underlay) with
  | [ Packet.Encap { outer_dst; _ } ] ->
      check Alcotest.string "tunnelled" "172.16.0.3" (Ipv4.to_string outer_dst)
  | _ -> Alcotest.fail "expected encap");
  check Alcotest.int "fast path stat" 1 (Of_switch.stats sw).Of_switch.flow_table_handled

let test_switch_decap_by_port_map () =
  let sw, r = make_switch () in
  let h1 = host 1 in
  Of_switch.attach_host sw h1;
  let eth = Packet.eth_of (data_pkt ~src:(host 5) ~dst:h1) in
  Of_switch.handle_underlay sw
    (Packet.encap ~outer_src:(Ipv4.of_switch_id 2) ~outer_dst:(Ipv4.of_switch_id 0) eth);
  (match !(r.to_hosts) with
  | [ ([ to_ ], _) ] -> check Alcotest.bool "delivered to h1" true (Host.equal to_ h1)
  | _ -> Alcotest.fail "expected one delivery to one host");
  (* Unknown inner destination is silently dropped. *)
  let eth2 = Packet.eth_of (data_pkt ~src:(host 5) ~dst:(host 9)) in
  Of_switch.handle_underlay sw
    (Packet.encap ~outer_src:(Ipv4.of_switch_id 2) ~outer_dst:(Ipv4.of_switch_id 0) eth2);
  check Alcotest.int "unknown dropped" 1 (List.length !(r.to_hosts))

let test_switch_flood_local_tenant_scope () =
  let sw, r = make_switch () in
  let h1 = host ~tenant:1 1 and h2 = host ~tenant:1 2 and h3 = host ~tenant:2 3 in
  List.iter (Of_switch.attach_host sw) [ h1; h2; h3 ];
  Of_switch.handle_controller_message sw
    (Message.Packet_out { packet = data_pkt ~src:h1 ~dst:(host 9); actions = [ Action.Flood_local ] });
  (* Same tenant only, sender excluded. *)
  (match !(r.to_hosts) with
  | [ ([ to_ ], _) ] -> check Alcotest.bool "only the tenant peer" true (Host.equal to_ h2)
  | _ -> Alcotest.fail "expected exactly one flooded copy");
  ignore h3

(* A flood is one [deliver_local] call listing its targets in mac order,
   whatever order the hosts were attached in; attaching or detaching a
   host between floods shows in the next one. *)
let test_switch_flood_one_delivery_in_mac_order () =
  let sw, r = make_switch () in
  let h1 = host 1 and h3 = host 3 and h5 = host 5 and h7 = host 7 in
  let other = host ~tenant:1 9 in
  List.iter (Of_switch.attach_host sw) [ h7; other; h3; h5; h1 ];
  let flood ~src =
    r.to_hosts := [];
    Of_switch.handle_controller_message sw
      (Message.Packet_out
         { packet = data_pkt ~src ~dst:(host 99); actions = [ Action.Flood_local ] });
    match !(r.to_hosts) with
    | [ (hosts, _) ] -> List.map (fun (h : Host.t) -> Ids.Host_id.to_int h.id) hosts
    | calls -> Alcotest.failf "expected one delivery, got %d" (List.length calls)
  in
  let delivered () = (Of_switch.stats sw).Of_switch.packets_delivered in
  let ids = Alcotest.(list int) in
  (* Local sender: its tenant's other hosts only. *)
  check ids "local sender" [ 1; 5; 7 ] (flood ~src:h3);
  check Alcotest.int "each host counted" 3 (delivered ());
  (* Sender behind another switch: every attached host. *)
  check ids "remote sender" [ 1; 3; 5; 7; 9 ] (flood ~src:(host 20));
  check Alcotest.int "counted again" 8 (delivered ());
  (* The cached order follows detach and attach. *)
  Of_switch.detach_host sw h5;
  check ids "after a detach" [ 1; 3; 7; 9 ] (flood ~src:(host 20));
  Of_switch.attach_host sw (host 4);
  check ids "after an attach" [ 1; 3; 4; 7; 9 ] (flood ~src:(host 20));
  check ids "local sender after both" [ 1; 4; 7 ] (flood ~src:h3);
  check Alcotest.int "all counted" 20 (delivered ())

let test_switch_echo () =
  let sw, r = make_switch () in
  Of_switch.handle_controller_message sw (Message.Echo_request 5);
  match !(r.to_controller) with
  | [ Message.Echo_reply 5 ] -> ()
  | _ -> Alcotest.fail "expected echo reply"

(* --- Of_controller ----------------------------------------------------------- *)

let make_controller ?(n_switches = 4) () =
  let engine = Engine.create () in
  let sent = ref [] in
  let env =
    {
      Of_controller.engine;
      send_switch = (fun sw m -> sent := (sw, m) :: !sent);
      n_switches;
    }
  in
  (Of_controller.create env Of_controller.default_config, sent)

let packet_in pkt =
  Message.Packet_in
    { packet = pkt; reason = Message.No_match; buffer_id = Message.no_buffer }

let test_controller_floods_unknown () =
  let c, sent = make_controller () in
  let h1 = host 1 and h2 = host 2 in
  Of_controller.handle_message c ~from:(sid 0) (packet_in (data_pkt ~src:h1 ~dst:h2));
  (* Unknown destination: flooded to all 4 switches (3 remote + ingress). *)
  let outs = List.filter (function _, Message.Packet_out _ -> true | _ -> false) !sent in
  check Alcotest.int "flooded everywhere" 4 (List.length outs);
  check Alcotest.int "flood counted" 1 (Of_controller.stats c).Of_controller.floods;
  (* Source location was learned. *)
  match Of_controller.locate c h1.Host.mac with
  | Some sw -> check Alcotest.int "learned" 0 (Ids.Switch_id.to_int sw)
  | None -> Alcotest.fail "source not learned"

let test_controller_learns_then_installs () =
  let c, sent = make_controller () in
  let h1 = host 1 and h2 = host 2 in
  (* h2 talks first (learned at sw3), then h1->h2 can be installed. *)
  Of_controller.handle_message c ~from:(sid 3) (packet_in (data_pkt ~src:h2 ~dst:h1));
  sent := [];
  Of_controller.handle_message c ~from:(sid 0) (packet_in (data_pkt ~src:h1 ~dst:h2));
  let mods =
    List.filter_map
      (function
        | sw, Message.Flow_mod (Message.Add e) -> Some (sw, e.Flow_table.actions)
        | _ -> None)
      !sent
  in
  (match mods with
  | [ (sw, [ Action.Encap ip ]) ] ->
      check Alcotest.int "rule on ingress" 0 (Ids.Switch_id.to_int sw);
      check Alcotest.string "to learned location" "172.16.0.3" (Ipv4.to_string ip)
  | _ -> Alcotest.fail "expected one flow-mod");
  let outs =
    List.filter (function _, Message.Packet_out _ -> true | _ -> false) !sent
  in
  check Alcotest.int "packet released, no flood" 1 (List.length outs)

let test_controller_same_switch_pair () =
  let c, sent = make_controller () in
  let h1 = host 1 and h2 = host 2 in
  Of_controller.handle_message c ~from:(sid 1) (packet_in (data_pkt ~src:h2 ~dst:h1));
  sent := [];
  (* h1 is behind sw1 too. *)
  Of_controller.handle_message c ~from:(sid 1) (packet_in (data_pkt ~src:h1 ~dst:h2));
  match !sent with
  | [ (sw, Message.Packet_out { actions = [ Action.Flood_local ]; _ }) ] ->
      check Alcotest.int "handed back" 1 (Ids.Switch_id.to_int sw)
  | _ -> Alcotest.fail "expected local hand-back"

let test_controller_broadcast_floods () =
  let c, sent = make_controller () in
  let h1 = host 1 in
  let arp = Packet.arp_request ~sender:h1 ~target_ip:(host 2).Host.ip () in
  Of_controller.handle_message c ~from:(sid 0) (packet_in arp);
  let outs = List.filter (function _, Message.Packet_out _ -> true | _ -> false) !sent in
  check Alcotest.int "broadcast flooded" 4 (List.length outs)

let test_controller_request_hook () =
  let c, _ = make_controller () in
  let count = ref 0 in
  Of_controller.set_request_hook c (fun () -> incr count);
  Of_controller.handle_message c ~from:(sid 0)
    (packet_in (data_pkt ~src:(host 1) ~dst:(host 2)));
  Of_controller.handle_message c ~from:(sid 0) (Message.Echo_reply 1);
  check Alcotest.int "only packet-ins counted" 1 !count;
  check Alcotest.int "stats agree" 1 (Of_controller.stats c).Of_controller.requests

let () =
  Alcotest.run "baseline"
    [
      ( "of_switch",
        [
          Alcotest.test_case "punts everything" `Quick test_switch_punts_everything;
          Alcotest.test_case "applies rules" `Quick test_switch_applies_rules;
          Alcotest.test_case "decap via port map" `Quick test_switch_decap_by_port_map;
          Alcotest.test_case "tenant-scoped flood" `Quick test_switch_flood_local_tenant_scope;
          Alcotest.test_case "flood is one delivery in mac order" `Quick
            test_switch_flood_one_delivery_in_mac_order;
          Alcotest.test_case "echo" `Quick test_switch_echo;
        ] );
      ( "of_controller",
        [
          Alcotest.test_case "floods unknown" `Quick test_controller_floods_unknown;
          Alcotest.test_case "learns then installs" `Quick test_controller_learns_then_installs;
          Alcotest.test_case "same-switch pair" `Quick test_controller_same_switch_pair;
          Alcotest.test_case "broadcast floods" `Quick test_controller_broadcast_floods;
          Alcotest.test_case "request hook" `Quick test_controller_request_hook;
        ] );
    ]
