(* Tests for lazyctrl.net: addresses, identifiers, hosts and frames. *)

open Lazyctrl_net
module Wire = Lazyctrl_wire.Wire

let check = Alcotest.check
let qtest ?(count = 300) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* --- MAC ----------------------------------------------------------------- *)

let test_mac_string_roundtrip =
  qtest "Mac string roundtrip"
    QCheck2.Gen.(int_range 0 ((1 lsl 48) - 1))
    (fun v ->
      let m = Mac.of_int v in
      Mac.equal m (Mac.of_string (Mac.to_string m)))

let test_mac_parse () =
  check Alcotest.int "parse" 0xAABBCCDDEEFF
    (Mac.to_int (Mac.of_string "aa:bb:cc:dd:ee:ff"));
  check Alcotest.string "print" "00:00:00:00:00:2a"
    (Mac.to_string (Mac.of_int 42));
  Alcotest.check_raises "bad mac"
    (Invalid_argument "Mac.of_string: expected six colon-separated bytes")
    (fun () -> ignore (Mac.of_string "aa:bb"))

let test_mac_broadcast () =
  check Alcotest.bool "broadcast" true (Mac.is_broadcast Mac.broadcast);
  check Alcotest.bool "unicast" false (Mac.is_broadcast (Mac.of_int 5));
  check Alcotest.string "broadcast string" "ff:ff:ff:ff:ff:ff"
    (Mac.to_string Mac.broadcast)

let test_mac_of_host_id_injective =
  qtest "host-id MACs distinct and unicast"
    QCheck2.Gen.(pair (int_range 0 1_000_000) (int_range 0 1_000_000))
    (fun (a, b) ->
      let ma = Mac.of_host_id a and mb = Mac.of_host_id b in
      (not (Mac.is_broadcast ma)) && Mac.equal ma mb = (a = b))

(* --- IPv4 ----------------------------------------------------------------- *)

let test_ipv4_string_roundtrip =
  qtest "Ipv4 string roundtrip"
    QCheck2.Gen.(int_range 0 0xFFFFFFFF)
    (fun v ->
      let ip = Ipv4.of_int v in
      Ipv4.equal ip (Ipv4.of_string (Ipv4.to_string ip)))

let test_ipv4_parse () =
  check Alcotest.int "octets" 0x0A000001 (Ipv4.to_int (Ipv4.of_octets 10 0 0 1));
  check Alcotest.string "print" "10.0.0.1"
    (Ipv4.to_string (Ipv4.of_string "10.0.0.1"));
  Alcotest.check_raises "bad quad"
    (Invalid_argument "Ipv4.of_string: bad octet") (fun () ->
      ignore (Ipv4.of_string "1.2.3.256"))

let test_ipv4_spaces () =
  (* Host and switch address spaces must not collide. *)
  check Alcotest.bool "disjoint" true
    (not (Ipv4.equal (Ipv4.of_host_id 5) (Ipv4.of_switch_id 5)));
  check Alcotest.string "host space" "10.0.0.5" (Ipv4.to_string (Ipv4.of_host_id 5));
  check Alcotest.string "switch space" "172.16.0.5"
    (Ipv4.to_string (Ipv4.of_switch_id 5))

(* --- Ids ------------------------------------------------------------------- *)

let test_ids () =
  let s = Ids.Switch_id.of_int 3 in
  check Alcotest.int "roundtrip" 3 (Ids.Switch_id.to_int s);
  check Alcotest.string "pp" "sw3" (Format.asprintf "%a" Ids.Switch_id.pp s);
  check Alcotest.string "pp host" "h7"
    (Format.asprintf "%a" Ids.Host_id.pp (Ids.Host_id.of_int 7));
  check Alcotest.string "pp tenant" "t1"
    (Format.asprintf "%a" Ids.Tenant_id.pp (Ids.Tenant_id.of_int 1));
  check Alcotest.string "pp group" "g0"
    (Format.asprintf "%a" Ids.Group_id.pp (Ids.Group_id.of_int 0));
  Alcotest.check_raises "negative id" (Invalid_argument "sw id: negative")
    (fun () -> ignore (Ids.Switch_id.of_int (-1)));
  let set =
    Ids.Switch_id.Set.of_list [ Ids.Switch_id.of_int 2; Ids.Switch_id.of_int 1 ]
  in
  check Alcotest.int "set" 2 (Ids.Switch_id.Set.cardinal set)

(* --- Host ------------------------------------------------------------------- *)

let test_host_make () =
  let h = Host.make ~id:(Ids.Host_id.of_int 9) ~tenant:(Ids.Tenant_id.of_int 2) in
  check Alcotest.int "mac derives from id" 9 (Mac.to_int h.mac land 0xFFFF);
  check Alcotest.string "ip" "10.0.0.9" (Ipv4.to_string h.ip);
  let h' = Host.make ~id:(Ids.Host_id.of_int 9) ~tenant:(Ids.Tenant_id.of_int 5) in
  check Alcotest.bool "equal by id" true (Host.equal h h')

(* --- Packet ----------------------------------------------------------------- *)

let host i = Host.make ~id:(Ids.Host_id.of_int i) ~tenant:(Ids.Tenant_id.of_int 0)

let gen_packet =
  let open QCheck2.Gen in
  let* src = int_range 0 10_000 in
  let* dst = int_range 0 10_000 in
  let src = host src and dst = host (dst + 20_000) in
  let* vlan = opt (int_range 1 4094) in
  let* kind = int_range 0 3 in
  match kind with
  | 0 -> return (Packet.arp_request ~sender:src ~target_ip:dst.Host.ip ?vlan ())
  | 1 -> return (Packet.arp_reply ~sender:dst ~requester:src ?vlan ())
  | 2 ->
      let* length = int_range 0 100_000 in
      let* sport = int_range 0 65535 in
      let* dport = int_range 0 65535 in
      return
        (Packet.data ~src ~dst ?vlan ~src_port:sport ~dst_port:dport ~length ())
  | _ ->
      let* length = int_range 0 100_000 in
      let inner = Packet.eth_of (Packet.data ~src ~dst ?vlan ~length ()) in
      return
        (Packet.encap ~outer_src:(Ipv4.of_switch_id 1)
           ~outer_dst:(Ipv4.of_switch_id 2) inner)

let test_packet_wire_roundtrip =
  qtest ~count:500 "wire roundtrip" gen_packet (fun p ->
      let w = Wire.W.create (Wire.packet_size ~full:false p) in
      Wire.write_packet w ~full:false p;
      Wire.read_packet (Wire.R.of_bytes w.Wire.W.buf) = p)

let test_packet_constructors () =
  let src = host 1 and dst = host 2 in
  let req = Packet.arp_request ~sender:src ~target_ip:dst.Host.ip () in
  check Alcotest.bool "ARP request broadcast" true (Packet.is_broadcast req);
  let reply = Packet.arp_reply ~sender:dst ~requester:src () in
  check Alcotest.bool "reply unicast" false (Packet.is_broadcast reply);
  (match Packet.eth_of reply with
  | { Packet.payload = Packet.Arp { op = Packet.Reply; sender_ip; _ }; dst = d; _ } ->
      check Alcotest.bool "reply to requester" true (Mac.equal d src.Host.mac);
      check Alcotest.bool "reply carries sender ip" true
        (Ipv4.equal sender_ip dst.Host.ip)
  | _ -> Alcotest.fail "not an ARP reply");
  Alcotest.check_raises "negative length"
    (Invalid_argument "Packet.data: negative length") (fun () ->
      ignore (Packet.data ~src ~dst ~length:(-1) ()))

let test_packet_encap_decap () =
  let inner = Packet.eth_of (Packet.data ~src:(host 1) ~dst:(host 2) ~length:99 ()) in
  let e =
    Packet.encap ~outer_src:(Ipv4.of_switch_id 3) ~outer_dst:(Ipv4.of_switch_id 4)
      inner
  in
  check Alcotest.bool "eth_of returns inner" true (Packet.eth_of e = inner)

let test_packet_size () =
  let p = Packet.data ~src:(host 1) ~dst:(host 2) ~length:1000 () in
  (* 14 eth header + 17 ip-ish header + payload *)
  check Alcotest.int "plain size" (14 + 17 + 1000) (Packet.size_on_wire p);
  let e =
    Packet.encap ~outer_src:(Ipv4.of_switch_id 0) ~outer_dst:(Ipv4.of_switch_id 1)
      (Packet.eth_of p)
  in
  check Alcotest.int "encap adds 10" (10 + 14 + 17 + 1000) (Packet.size_on_wire e);
  let tagged = Packet.data ~src:(host 1) ~dst:(host 2) ~vlan:7 ~length:0 () in
  check Alcotest.int "vlan adds 4" (18 + 17) (Packet.size_on_wire tagged)

let () =
  Alcotest.run "net"
    [
      ( "mac",
        [
          test_mac_string_roundtrip;
          Alcotest.test_case "parse/print" `Quick test_mac_parse;
          Alcotest.test_case "broadcast" `Quick test_mac_broadcast;
          test_mac_of_host_id_injective;
        ] );
      ( "ipv4",
        [
          test_ipv4_string_roundtrip;
          Alcotest.test_case "parse/print" `Quick test_ipv4_parse;
          Alcotest.test_case "address spaces" `Quick test_ipv4_spaces;
        ] );
      ("ids", [ Alcotest.test_case "basics" `Quick test_ids ]);
      ("host", [ Alcotest.test_case "make" `Quick test_host_make ]);
      ( "packet",
        [
          test_packet_wire_roundtrip;
          Alcotest.test_case "constructors" `Quick test_packet_constructors;
          Alcotest.test_case "encap/decap" `Quick test_packet_encap_decap;
          Alcotest.test_case "size accounting" `Quick test_packet_size;
        ] );
    ]
