(* Tests for lazyctrl.switch: L-FIB, G-FIB, and the edge switch's Fig. 5
   forwarding routine, ARP cascade, designated-switch duties, and wheel
   keep-alives — all driven through a recording mock environment. *)

open Lazyctrl_net
open Lazyctrl_sim
open Lazyctrl_openflow
open Lazyctrl_switch

let check = Alcotest.check
let sid = Ids.Switch_id.of_int
let hid = Ids.Host_id.of_int
let tid = Ids.Tenant_id.of_int
let host ?(tenant = 0) i = Host.make ~id:(hid i) ~tenant:(tid tenant)

let key_of (h : Host.t) : Proto.host_key =
  { mac = h.mac; ip = h.ip; tenant = h.tenant }

(* --- Lfib -------------------------------------------------------------------- *)

let test_lfib_learn_lookup () =
  let l = Lfib.create () in
  let h = host 1 in
  check Alcotest.bool "new" true (Lfib.learn l h);
  check Alcotest.bool "already known" false (Lfib.learn l h);
  check Alcotest.int "size" 1 (Lfib.size l);
  check Alcotest.bool "by mac" true (Lfib.lookup_mac l h.Host.mac <> None);
  check Alcotest.bool "by ip" true (Lfib.lookup_ip l h.Host.ip <> None);
  check Alcotest.bool "mem" true (Lfib.mem_host l h.Host.id);
  check Alcotest.bool "forget" true (Lfib.forget l h.Host.id);
  check Alcotest.bool "gone" true (Lfib.lookup_mac l h.Host.mac = None);
  check Alcotest.bool "forget absent" false (Lfib.forget l h.Host.id)

let test_lfib_pending () =
  let l = Lfib.create () in
  ignore (Lfib.learn l (host 1));
  ignore (Lfib.learn l (host 2));
  ignore (Lfib.forget l (hid 1));
  check Alcotest.bool "has pending" true (Lfib.has_pending l);
  let added, removed = Lfib.take_pending l in
  check Alcotest.int "added" 2 (List.length added);
  check Alcotest.int "removed" 1 (List.length removed);
  check Alcotest.bool "drained" false (Lfib.has_pending l);
  let a2, r2 = Lfib.take_pending l in
  check Alcotest.int "empty now" 0 (List.length a2 + List.length r2)

let test_lfib_tenants () =
  let l = Lfib.create () in
  ignore (Lfib.learn l (host ~tenant:1 1));
  ignore (Lfib.learn l (host ~tenant:1 2));
  ignore (Lfib.learn l (host ~tenant:2 3));
  check Alcotest.int "tenants" 2 (List.length (Lfib.local_tenants l));
  check Alcotest.int "tenant hosts" 2 (List.length (Lfib.hosts_of_tenant l (tid 1)));
  check Alcotest.int "all keys" 3 (List.length (Lfib.all_keys l))

let test_lfib_bloom () =
  let l = Lfib.create () in
  ignore (Lfib.learn l (host 1));
  ignore (Lfib.learn l (host 2));
  let b = Lfib.to_bloom l in
  check Alcotest.bool "mac key" true
    (Lazyctrl_bloom.Bloom.mem b (Proto.mac_key (host 1).Host.mac));
  check Alcotest.bool "ip key" true
    (Lazyctrl_bloom.Bloom.mem b (Proto.ip_key (host 2).Host.ip))

(* --- Gfib -------------------------------------------------------------------- *)

let test_gfib_set_and_query () =
  let g = Gfib.create () in
  Gfib.set_peer g (sid 1) [ key_of (host 1); key_of (host 2) ];
  Gfib.set_peer g (sid 2) [ key_of (host 3) ];
  check Alcotest.int "peers" 2 (Gfib.n_peers g);
  check (Alcotest.list Alcotest.int) "candidates by mac" [ 1 ]
    (List.map Ids.Switch_id.to_int (Gfib.candidates_mac g (host 1).Host.mac));
  check (Alcotest.list Alcotest.int) "candidates by ip" [ 2 ]
    (List.map Ids.Switch_id.to_int (Gfib.candidates_ip g (host 3).Host.ip));
  check (Alcotest.list Alcotest.int) "absent key" []
    (List.map Ids.Switch_id.to_int (Gfib.candidates_mac g (host 99).Host.mac))

let test_gfib_advert_lifecycle () =
  let g = Gfib.create () in
  Gfib.apply_advert g (sid 1) ~added:[ key_of (host 1) ] ~removed:[];
  check Alcotest.int "peer created on demand" 1 (Gfib.n_peers g);
  check Alcotest.bool "added" true (Gfib.candidates_mac g (host 1).Host.mac = [ sid 1 ]);
  Gfib.apply_advert g (sid 1) ~added:[] ~removed:[ key_of (host 1) ];
  check Alcotest.bool "removed" true (Gfib.candidates_mac g (host 1).Host.mac = []);
  Gfib.set_peer g (sid 1) [ key_of (host 2) ];
  check Alcotest.bool "full replace drops old" true
    (Gfib.candidates_mac g (host 1).Host.mac = []);
  (* After adds and removes, a full advert leaves the peer answering
     exactly as a fresh G-FIB given only that advert, and the peer set
     (cached before the advert) unchanged. *)
  Gfib.set_peer g (sid 2) [ key_of (host 40) ];
  Gfib.apply_advert g (sid 1) ~added:(List.init 20 (fun i -> key_of (host i))) ~removed:[];
  Gfib.apply_advert g (sid 1) ~added:[] ~removed:[ key_of (host 3); key_of (host 4) ];
  let peers () = List.map Ids.Switch_id.to_int (Gfib.peers g) in
  let before = peers () in
  let keys = [ key_of (host 5); key_of (host 30); key_of (host 31) ] in
  Gfib.set_peer g (sid 1) keys;
  let fresh = Gfib.create () in
  Gfib.set_peer fresh (sid 1) keys;
  check (Alcotest.list Alcotest.int) "peers unchanged" before (peers ());
  let peer1 = List.filter (Ids.Switch_id.equal (sid 1)) in
  let same = List.equal Ids.Switch_id.equal in
  for i = 0 to 63 do
    let h = host i in
    check Alcotest.bool (Printf.sprintf "h%d by mac as fresh" i) true
      (same (Gfib.candidates_mac fresh h.Host.mac) (peer1 (Gfib.candidates_mac g h.Host.mac)));
    check Alcotest.bool (Printf.sprintf "h%d by ip as fresh" i) true
      (same (Gfib.candidates_ip fresh h.Host.ip) (peer1 (Gfib.candidates_ip g h.Host.ip)))
  done;
  Gfib.drop_peer g (sid 1);
  Gfib.drop_peer g (sid 2);
  check Alcotest.int "dropped" 0 (Gfib.n_peers g)

let test_gfib_storage () =
  let g = Gfib.create ~bits_per_entry:128 ~expected_hosts_per_switch:64 () in
  Gfib.set_peer g (sid 1) [];
  (* 128 bits x 2 keys x 64 hosts = 16384 bits = 2048 bytes. *)
  check Alcotest.int "2048 bytes per peer" 2048 (Gfib.storage_bytes g)

(* The host-side footprint matches the wire one: a peer costs its 2 KB
   bit array (256 words) plus a few words of bookkeeping, not a byte per
   counter (2,048 words for the array alone). The benchmark's groups
   have up to 14 switches, and its 7,251 hosts over 272 switches are
   about 27 per switch, so this G-FIB holds 13 peers of 27 hosts. It
   measured 288 words per peer (one byte per counter: 2,069). *)
let test_gfib_footprint () =
  let g = Gfib.create () in
  for p = 1 to 13 do
    Gfib.set_peer g (sid p) (List.init 27 (fun i -> key_of (host ((p * 100) + i))))
  done;
  (* A probe builds the peer cache, as the datapath's first packet does. *)
  ignore (Gfib.candidates_mac g (host 101).Host.mac);
  let per_peer = Obj.reachable_words (Obj.repr g) / 13 in
  if per_peer > 320 then
    Alcotest.failf "%d words per peer, over the bound of 320" per_peer

(* --- Edge switch with a recording environment --------------------------------- *)

type recorded = {
  engine : Engine.t;
  to_controller : Edge_switch.msg list ref;
  to_peers : (Ids.Switch_id.t * Edge_switch.msg) list ref;
  to_underlay : Packet.t list ref;
  to_hosts : (Host.t * Packet.t) list ref;
}

let mock_env () =
  let engine = Engine.create () in
  let to_controller = ref [] in
  let to_peers = ref [] in
  let to_underlay = ref [] in
  let to_hosts = ref [] in
  let env =
    {
      Edge_switch.engine;
      send_controller =
        (fun m ->
          to_controller := m :: !to_controller;
          true);
      send_peer = (fun p m -> to_peers := (p, m) :: !to_peers);
      send_underlay = (fun p -> to_underlay := p :: !to_underlay);
      deliver_local = (fun h p -> to_hosts := (h, p) :: !to_hosts);
      underlay_ip_of = (fun sw -> Ipv4.of_switch_id (Ids.Switch_id.to_int sw));
    }
  in
  (env, { engine; to_controller; to_peers; to_underlay; to_hosts })

let group_config ?(members = [ sid 0; sid 1; sid 2 ]) ?(designated = sid 1) () =
  {
    Proto.group = Ids.Group_id.of_int 0;
    members;
    designated;
    backups = [];
    sync_period = Time.of_sec 30;
    keepalive_period = Time.of_sec 5;
  }

let make_switch ?(self = 0) ?(config = Edge_switch.default_config) () =
  let env, rec_ = mock_env () in
  (Edge_switch.create env config ~self:(sid self), rec_)

let data_pkt ~src ~dst = Packet.data ~src ~dst ~length:100 ()

let extensions msgs =
  List.filter_map (function Message.Extension e -> Some e | _ -> None) msgs

(* Strip the reliable-transport framing from a recorded message list: drop
   acks and dedup retransmitted copies by (epoch, seq). *)
let unwrap msgs =
  let seen = Hashtbl.create 16 in
  List.filter_map
    (function
      | Message.Extension (Proto.Ack _) -> None
      | Message.Extension (Proto.Seq { epoch; seq; payload }) ->
          if Hashtbl.mem seen (epoch, seq) then None
          else begin
            Hashtbl.add seen (epoch, seq) ();
            Some payload
          end
      | m -> Some m)
    msgs

let unwrap_peers entries =
  let seen = Hashtbl.create 16 in
  List.filter_map
    (fun (to_, m) ->
      match m with
      | Message.Extension (Proto.Ack _) -> None
      | Message.Extension (Proto.Seq { epoch; seq; payload }) ->
          if Hashtbl.mem seen (to_, epoch, seq) then None
          else begin
            Hashtbl.add seen (to_, epoch, seq) ();
            Some (to_, payload)
          end
      | m -> Some (to_, m))
    entries

let test_fig5_lfib_local_delivery () =
  let sw, r = make_switch () in
  let h1 = host 1 and h2 = host 2 in
  Edge_switch.attach_host sw h1;
  Edge_switch.attach_host sw h2;
  Edge_switch.handle_from_host sw h1 (data_pkt ~src:h1 ~dst:h2);
  (match !(r.to_hosts) with
  | [ (to_, _) ] -> check Alcotest.bool "delivered to h2" true (Host.equal to_ h2)
  | _ -> Alcotest.fail "expected one local delivery");
  let s = Edge_switch.stats sw in
  check Alcotest.int "lfib handled" 1 s.Edge_switch.lfib_handled;
  check Alcotest.int "no punts" 0 s.Edge_switch.punted

let test_fig5_gfib_encap () =
  let sw, r = make_switch () in
  let h1 = host 1 and h2 = host 2 in
  Edge_switch.attach_host sw h1;
  Edge_switch.handle_peer_message sw ~from:(sid 1)
    (Message.Extension
       (Proto.Lfib_advert
          { origin = sid 2; added = [ key_of h2 ]; removed = []; full = true }));
  Edge_switch.handle_from_host sw h1 (data_pkt ~src:h1 ~dst:h2);
  (match !(r.to_underlay) with
  | [ Packet.Encap { outer_dst; _ } ] ->
      check Alcotest.string "tunnelled to sw2" "172.16.0.2" (Ipv4.to_string outer_dst)
  | _ -> Alcotest.fail "expected one encapsulated frame");
  check Alcotest.int "gfib handled" 1 (Edge_switch.stats sw).Edge_switch.gfib_handled

let test_fig5_flow_table_precedence () =
  let sw, r = make_switch () in
  let h1 = host 1 and h2 = host 2 in
  Edge_switch.attach_host sw h1;
  Edge_switch.attach_host sw h2;
  (* An installed rule must shadow the L-FIB (Fig. 5 checks the flow table
     first). *)
  Edge_switch.handle_controller_message sw
    (Message.Flow_mod
       (Message.Add
          {
            Flow_table.priority = 10;
            ofmatch = Ofmatch.exact_pair ~src:h1.Host.mac ~dst:h2.Host.mac;
            actions = [ Action.Drop ];
            idle_timeout = None;
            hard_timeout = None;
            cookie = 0;
          }));
  Edge_switch.handle_from_host sw h1 (data_pkt ~src:h1 ~dst:h2);
  check Alcotest.int "dropped, not delivered" 0 (List.length !(r.to_hosts));
  check Alcotest.int "flow table handled" 1
    (Edge_switch.stats sw).Edge_switch.flow_table_handled

let test_fig5_punt_unknown () =
  let sw, r = make_switch () in
  let h1 = host 1 in
  Edge_switch.attach_host sw h1;
  Edge_switch.handle_from_host sw h1 (data_pkt ~src:h1 ~dst:(host 9));
  (match !(r.to_controller) with
  | [ Message.Packet_in { reason = Message.No_match; _ } ] -> ()
  | _ -> Alcotest.fail "expected a Packet_in");
  check Alcotest.int "punted" 1 (Edge_switch.stats sw).Edge_switch.punted

let test_fig5_decap_delivery_and_fp_drop () =
  let sw, r = make_switch () in
  let h1 = host 1 in
  Edge_switch.attach_host sw h1;
  let eth_known = Packet.eth_of (data_pkt ~src:(host 5) ~dst:h1) in
  Edge_switch.handle_underlay sw
    (Packet.encap ~outer_src:(Ipv4.of_switch_id 3) ~outer_dst:(Ipv4.of_switch_id 0)
       eth_known);
  check Alcotest.int "decap delivered" 1 (List.length !(r.to_hosts));
  (* A frame for an unknown MAC is a Bloom false positive: dropped. *)
  let eth_unknown = Packet.eth_of (data_pkt ~src:(host 5) ~dst:(host 9)) in
  Edge_switch.handle_underlay sw
    (Packet.encap ~outer_src:(Ipv4.of_switch_id 3) ~outer_dst:(Ipv4.of_switch_id 0)
       eth_unknown);
  check Alcotest.int "fp dropped" 1 (Edge_switch.stats sw).Edge_switch.fp_drops;
  check Alcotest.int "still one delivery" 1 (List.length !(r.to_hosts))

let test_fp_report_option () =
  let config = { Edge_switch.default_config with Edge_switch.report_false_positives = true } in
  let sw, r = make_switch ~config () in
  let eth = Packet.eth_of (data_pkt ~src:(host 5) ~dst:(host 9)) in
  Edge_switch.handle_underlay sw
    (Packet.encap ~outer_src:(Ipv4.of_switch_id 3) ~outer_dst:(Ipv4.of_switch_id 0) eth);
  match extensions !(r.to_controller) with
  | [ Proto.False_positive { at; _ } ] ->
      check Alcotest.int "reported by self" 0 (Ids.Switch_id.to_int at)
  | _ -> Alcotest.fail "expected a false-positive report"

let test_arp_local_answer () =
  let sw, r = make_switch () in
  let h1 = host 1 and h2 = host 2 in
  Edge_switch.attach_host sw h1;
  Edge_switch.attach_host sw h2;
  Edge_switch.handle_from_host sw h1
    (Packet.arp_request ~sender:h1 ~target_ip:h2.Host.ip ());
  (match !(r.to_hosts) with
  | [ (to_, _) ] -> check Alcotest.bool "request to owner" true (Host.equal to_ h2)
  | _ -> Alcotest.fail "expected local ARP delivery");
  check Alcotest.int "stat" 1 (Edge_switch.stats sw).Edge_switch.arp_local_answered

let test_arp_gfib_candidates () =
  let sw, r = make_switch () in
  let h1 = host 1 and h2 = host 2 in
  Edge_switch.attach_host sw h1;
  Edge_switch.handle_peer_message sw ~from:(sid 1)
    (Message.Extension
       (Proto.Lfib_advert
          { origin = sid 2; added = [ key_of h2 ]; removed = []; full = true }));
  Edge_switch.handle_from_host sw h1
    (Packet.arp_request ~sender:h1 ~target_ip:h2.Host.ip ());
  check Alcotest.int "encap to candidate" 1 (List.length !(r.to_underlay))

let test_arp_escalation_to_designated () =
  let sw, r = make_switch () in
  Edge_switch.handle_controller_message sw
    (Message.Extension (Proto.Group_config (group_config ())));
  let h1 = host 1 in
  Edge_switch.attach_host sw h1;
  Edge_switch.handle_from_host sw h1
    (Packet.arp_request ~sender:h1 ~target_ip:(host 9).Host.ip ());
  let group_arps =
    List.filter
      (function _, Message.Extension (Proto.Group_arp _) -> true | _ -> false)
      !(r.to_peers)
  in
  (match group_arps with
  | [ (to_, _) ] -> check Alcotest.int "to designated" 1 (Ids.Switch_id.to_int to_)
  | _ -> Alcotest.fail "expected Group_arp to the designated switch");
  check Alcotest.int "stat" 1 (Edge_switch.stats sw).Edge_switch.arp_group_escalated

let test_designated_group_arp_broadcast_and_escalate () =
  (* Self is the designated switch: a Group_arp from a member must be
     broadcast to the other members and escalated when unknown. *)
  let sw, r = make_switch ~self:1 () in
  Edge_switch.handle_controller_message sw
    (Message.Extension (Proto.Group_config (group_config ())));
  ignore (List.length !(r.to_peers));
  r.to_peers := [];
  let request = Packet.arp_request ~sender:(host 5) ~target_ip:(host 9).Host.ip () in
  Edge_switch.handle_peer_message sw ~from:(sid 0)
    (Message.Extension (Proto.Group_arp { origin = sid 0; packet = request }));
  let broadcasts =
    List.filter
      (function _, Message.Extension (Proto.Arp_broadcast _) -> true | _ -> false)
      !(r.to_peers)
  in
  (* Members are {0,1,2}; origin 0 and self 1 excluded -> only 2. *)
  (match broadcasts with
  | [ (to_, _) ] -> check Alcotest.int "broadcast to sw2" 2 (Ids.Switch_id.to_int to_)
  | _ -> Alcotest.fail "expected one Arp_broadcast");
  match extensions !(r.to_controller) with
  | [ Proto.Arp_escalate { origin; _ } ] ->
      check Alcotest.int "escalated for origin" 0 (Ids.Switch_id.to_int origin)
  | _ -> Alcotest.fail "expected escalation to controller"

let test_adoption_sends_full_advert () =
  let sw, r = make_switch () in
  Edge_switch.attach_host sw (host 1);
  Edge_switch.handle_controller_message sw
    (Message.Extension (Proto.Group_config (group_config ())));
  let adverts =
    List.filter_map
      (function
        | to_, Message.Extension (Proto.Lfib_advert d) -> Some (to_, d)
        | _ -> None)
      (unwrap_peers !(r.to_peers))
  in
  match adverts with
  | [ (to_, d) ] ->
      check Alcotest.int "to designated" 1 (Ids.Switch_id.to_int to_);
      check Alcotest.bool "full sync" true d.Proto.full;
      check Alcotest.int "whole table" 1 (List.length d.Proto.added)
  | _ -> Alcotest.fail "expected one full advert"

let test_designated_relays_adverts () =
  let sw, r = make_switch ~self:1 () in
  Edge_switch.handle_controller_message sw
    (Message.Extension (Proto.Group_config (group_config ())));
  r.to_peers := [];
  let d = { Proto.origin = sid 0; added = [ key_of (host 7) ]; removed = []; full = false } in
  Edge_switch.handle_peer_message sw ~from:(sid 0)
    (Message.Extension (Proto.Lfib_advert d));
  (* Relayed to member 2 (not origin 0, not self 1), applied to own G-FIB. *)
  (match unwrap_peers !(r.to_peers) with
  | [ (to_, Message.Extension (Proto.Lfib_advert _)) ] ->
      check Alcotest.int "relay target" 2 (Ids.Switch_id.to_int to_)
  | _ -> Alcotest.fail "expected one relayed advert");
  check Alcotest.bool "applied locally" true
    (Gfib.candidates_mac (Edge_switch.gfib sw) (host 7).Host.mac = [ sid 0 ]);
  (* A relayed copy arriving at a non-designated member is not re-relayed. *)
  let sw2, r2 = make_switch ~self:2 () in
  Edge_switch.handle_controller_message sw2
    (Message.Extension (Proto.Group_config (group_config ())));
  r2.to_peers := [];
  Edge_switch.handle_peer_message sw2 ~from:(sid 1)
    (Message.Extension (Proto.Lfib_advert d));
  check Alcotest.int "no re-relay" 0 (List.length (unwrap_peers !(r2.to_peers)))

let test_state_report_cycle () =
  let sw, r = make_switch ~self:1 () in
  Edge_switch.handle_controller_message sw
    (Message.Extension (Proto.Group_config (group_config ())));
  (* Drain the adoption-time self-advert from the buffer. *)
  Edge_switch.flush_report sw;
  r.to_controller := [];
  (* Buffer a member advert and a member intensity report, then flush. *)
  Edge_switch.handle_peer_message sw ~from:(sid 0)
    (Message.Extension
       (Proto.Lfib_advert
          { origin = sid 0; added = [ key_of (host 3) ]; removed = []; full = false }));
  Edge_switch.handle_peer_message sw ~from:(sid 0)
    (Message.Extension (Proto.Member_report { origin = sid 0; intensity = [ (sid 2, 5) ] }));
  Edge_switch.flush_report sw;
  match extensions (unwrap !(r.to_controller)) with
  | [ Proto.State_report { deltas; intensity; _ } ] ->
      check Alcotest.int "delta buffered" 1 (List.length deltas);
      (match intensity with
      | [ (a, b, 5) ] ->
          check Alcotest.bool "pair normalized" true
            (Ids.Switch_id.to_int a = 0 && Ids.Switch_id.to_int b = 2)
      | _ -> Alcotest.fail "expected one intensity pair")
  | _ -> Alcotest.fail "expected one state report"

let test_member_report_to_designated () =
  let sw, r = make_switch ~self:0 () in
  Edge_switch.handle_controller_message sw
    (Message.Extension (Proto.Group_config (group_config ())));
  let h1 = host 1 and h2 = host 2 in
  Edge_switch.attach_host sw h1;
  (* Learn h2 behind sw2, send a data flow so intensity accrues. *)
  Edge_switch.handle_peer_message sw ~from:(sid 1)
    (Message.Extension
       (Proto.Lfib_advert
          { origin = sid 2; added = [ key_of h2 ]; removed = []; full = true }));
  Edge_switch.handle_from_host sw h1 (data_pkt ~src:h1 ~dst:h2);
  r.to_peers := [];
  Edge_switch.flush_report sw;
  let reports =
    List.filter_map
      (function
        | to_, Message.Extension (Proto.Member_report { intensity; _ }) ->
            Some (to_, intensity)
        | _ -> None)
      (unwrap_peers !(r.to_peers))
  in
  match reports with
  | [ (to_, [ (remote, 1) ]) ] ->
      check Alcotest.int "to designated" 1 (Ids.Switch_id.to_int to_);
      check Alcotest.int "remote counted" 2 (Ids.Switch_id.to_int remote)
  | _ -> Alcotest.fail "expected one member report with one pair"

let test_echo_reply () =
  let sw, r = make_switch () in
  Edge_switch.handle_controller_message sw (Message.Echo_request 42);
  match !(r.to_controller) with
  | [ Message.Echo_reply 42 ] -> ()
  | _ -> Alcotest.fail "expected echo reply"

let test_keepalives_and_alarm () =
  let sw, r = make_switch ~self:0 () in
  Edge_switch.handle_controller_message sw
    (Message.Extension (Proto.Group_config (group_config ())));
  (* Run long enough for keep-alive ticks; no peer sends any back, so both
     ring alarms must fire. *)
  Engine.run ~until:(Time.of_sec 60) r.engine;
  check Alcotest.bool "keepalives sent" true
    ((Edge_switch.stats sw).Edge_switch.keepalives_sent > 10);
  let alarms =
    List.filter_map
      (function Proto.Ring_alarm { missing; direction; _ } -> Some (missing, direction) | _ -> None)
      (extensions (unwrap !(r.to_controller)))
  in
  check Alcotest.int "two alarms (both neighbours)" 2 (List.length alarms);
  (* Feeding a keep-alive resets the upstream loss. *)
  Edge_switch.handle_peer_message sw ~from:(sid 2)
    (Message.Extension (Proto.Keepalive { from = sid 2 }))

let test_power_off_on () =
  let sw, r = make_switch () in
  let h1 = host 1 and h2 = host 2 in
  Edge_switch.attach_host sw h1;
  Edge_switch.attach_host sw h2;
  Edge_switch.handle_controller_message sw
    (Message.Extension (Proto.Group_config (group_config ())));
  Edge_switch.set_up sw false;
  check Alcotest.bool "down" false (Edge_switch.is_up sw);
  check Alcotest.bool "group cleared" true (Edge_switch.group sw = None);
  r.to_hosts := [];
  Edge_switch.handle_from_host sw h1 (data_pkt ~src:h1 ~dst:h2);
  check Alcotest.int "dead switch drops" 0 (List.length !(r.to_hosts));
  Edge_switch.set_up sw true;
  Edge_switch.handle_from_host sw h1 (data_pkt ~src:h1 ~dst:h2);
  check Alcotest.int "alive again" 1 (List.length !(r.to_hosts))

let test_control_relay () =
  let sw, r = make_switch () in
  Edge_switch.set_control_relay sw (Some (sid 2));
  let h1 = host 1 in
  Edge_switch.attach_host sw h1;
  Edge_switch.handle_from_host sw h1 (data_pkt ~src:h1 ~dst:(host 9));
  check Alcotest.int "nothing direct" 0 (List.length !(r.to_controller));
  (match !(r.to_peers) with
  | [ (to_, Message.Extension (Proto.Relay { origin; boxed = Message.Packet_in _ })) ] ->
      check Alcotest.int "via neighbour" 2 (Ids.Switch_id.to_int to_);
      check Alcotest.int "origin preserved" 0 (Ids.Switch_id.to_int origin)
  | _ -> Alcotest.fail "expected a boxed relay");
  (* The healthy neighbour forwards relays up its own control link. *)
  let sw2, r2 = make_switch ~self:2 () in
  let relayed =
    Message.Extension
      (Proto.Relay { origin = sid 0; boxed = Message.Echo_reply 1 })
  in
  Edge_switch.handle_peer_message sw2 ~from:(sid 0) relayed;
  check Alcotest.int "forwarded" 1 (List.length !(r2.to_controller))

let test_group_sync_rebuilds () =
  let sw, r = make_switch ~self:1 () in
  Edge_switch.handle_controller_message sw
    (Message.Extension (Proto.Group_config (group_config ())));
  r.to_peers := [];
  Edge_switch.handle_controller_message sw
    (Message.Extension
       (Proto.Group_sync { lfibs = [ (sid 0, [ key_of (host 4) ]); (sid 2, []) ] }));
  check Alcotest.bool "gfib rebuilt" true
    (Gfib.candidates_mac (Edge_switch.gfib sw) (host 4).Host.mac = [ sid 0 ]);
  (* Both rows re-broadcast as full adverts to the other members. *)
  let adverts =
    List.filter
      (function _, Message.Extension (Proto.Lfib_advert { full = true; _ }) -> true | _ -> false)
      (unwrap_peers !(r.to_peers))
  in
  check Alcotest.bool "rebroadcast" true (List.length adverts >= 2)

let () =
  Alcotest.run "switch"
    [
      ( "lfib",
        [
          Alcotest.test_case "learn/lookup/forget" `Quick test_lfib_learn_lookup;
          Alcotest.test_case "pending deltas" `Quick test_lfib_pending;
          Alcotest.test_case "tenants" `Quick test_lfib_tenants;
          Alcotest.test_case "bloom projection" `Quick test_lfib_bloom;
        ] );
      ( "gfib",
        [
          Alcotest.test_case "set and query" `Quick test_gfib_set_and_query;
          Alcotest.test_case "advert lifecycle" `Quick test_gfib_advert_lifecycle;
          Alcotest.test_case "storage geometry" `Quick test_gfib_storage;
          Alcotest.test_case "host footprint" `Quick test_gfib_footprint;
        ] );
      ( "datapath (Fig. 5)",
        [
          Alcotest.test_case "L-FIB local delivery" `Quick test_fig5_lfib_local_delivery;
          Alcotest.test_case "G-FIB encap" `Quick test_fig5_gfib_encap;
          Alcotest.test_case "flow table precedence" `Quick test_fig5_flow_table_precedence;
          Alcotest.test_case "punt unknown" `Quick test_fig5_punt_unknown;
          Alcotest.test_case "decap and FP drop" `Quick test_fig5_decap_delivery_and_fp_drop;
          Alcotest.test_case "FP report option" `Quick test_fp_report_option;
        ] );
      ( "arp cascade",
        [
          Alcotest.test_case "local answer" `Quick test_arp_local_answer;
          Alcotest.test_case "G-FIB candidates" `Quick test_arp_gfib_candidates;
          Alcotest.test_case "escalate to designated" `Quick test_arp_escalation_to_designated;
          Alcotest.test_case "designated broadcast+escalate" `Quick
            test_designated_group_arp_broadcast_and_escalate;
        ] );
      ( "state dissemination",
        [
          Alcotest.test_case "full advert on adoption" `Quick test_adoption_sends_full_advert;
          Alcotest.test_case "designated relays" `Quick test_designated_relays_adverts;
          Alcotest.test_case "state report cycle" `Quick test_state_report_cycle;
          Alcotest.test_case "member report" `Quick test_member_report_to_designated;
          Alcotest.test_case "group sync" `Quick test_group_sync_rebuilds;
        ] );
      ( "liveness and failover",
        [
          Alcotest.test_case "echo reply" `Quick test_echo_reply;
          Alcotest.test_case "keepalives and alarms" `Quick test_keepalives_and_alarm;
          Alcotest.test_case "power off/on" `Quick test_power_off_on;
          Alcotest.test_case "control relay" `Quick test_control_relay;
        ] );
    ]
