(* Tests for lazyctrl.topo: topology indexing, migration, placement, and
   the underlay core. *)

open Lazyctrl_net
open Lazyctrl_sim
open Lazyctrl_topo
module Prng = Lazyctrl_util.Prng

let check = Alcotest.check

let sid = Ids.Switch_id.of_int
let hid = Ids.Host_id.of_int
let tid = Ids.Tenant_id.of_int
let host i tenant = Host.make ~id:(hid i) ~tenant:(tid tenant)

let small_topo () =
  let t = Topology.create ~n_switches:4 in
  Topology.add_host t (host 0 0) ~at:(sid 0);
  Topology.add_host t (host 1 0) ~at:(sid 0);
  Topology.add_host t (host 2 1) ~at:(sid 1);
  Topology.add_host t (host 3 1) ~at:(sid 2);
  t

let test_topology_basics () =
  let t = small_topo () in
  check Alcotest.int "switches" 4 (Topology.n_switches t);
  check Alcotest.int "hosts" 4 (Topology.n_hosts t);
  check Alcotest.int "hosts at sw0" 2 (List.length (Topology.hosts_at t (sid 0)));
  check Alcotest.bool "location" true
    (Ids.Switch_id.equal (sid 1) (Topology.location t (hid 2)));
  check Alcotest.int "tenants" 2 (List.length (Topology.tenants t));
  check Alcotest.int "tenant 1 hosts" 2 (List.length (Topology.tenant_hosts t (tid 1)));
  check Alcotest.int "tenant 1 switches" 2
    (List.length (Topology.tenant_switches t (tid 1)))

let test_topology_migrate () =
  let t = small_topo () in
  let prev = Topology.migrate t (hid 0) ~to_:(sid 3) in
  check Alcotest.bool "previous location" true (Ids.Switch_id.equal prev (sid 0));
  check Alcotest.bool "new location" true
    (Ids.Switch_id.equal (sid 3) (Topology.location t (hid 0)));
  check Alcotest.int "sw0 lost a host" 1 (List.length (Topology.hosts_at t (sid 0)));
  check Alcotest.int "sw3 gained it" 1 (List.length (Topology.hosts_at t (sid 3)))

let test_topology_duplicate_rejected () =
  let t = small_topo () in
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Topology.add_host: duplicate host") (fun () ->
      Topology.add_host t (host 0 0) ~at:(sid 1))

let test_underlay_ip_mapping () =
  let t = small_topo () in
  check Alcotest.bool "switch endpoint" true
    (Ipv4.equal (Topology.underlay_ip t (sid 2)) (Ipv4.of_switch_id 2));
  check Alcotest.bool "distinct per switch" false
    (Ipv4.equal (Topology.underlay_ip t (sid 1)) (Topology.underlay_ip t (sid 2)))

let test_vlan_of_tenant () =
  check Alcotest.int "vlan base" 1 (Topology.vlan_of_tenant (tid 0));
  check Alcotest.int "vlan wraps in 12-bit space" 1
    (Topology.vlan_of_tenant (tid 4094))

(* --- Placement ----------------------------------------------------------------- *)

let test_placement_generates_spec () =
  let spec =
    {
      Placement.n_switches = 20;
      n_tenants = 5;
      tenant_size_min = 10;
      tenant_size_max = 20;
      racks_per_tenant = 3;
      stray_fraction = 0.1;
    }
  in
  let topo = Placement.generate ~rng:(Prng.create 1) spec in
  check Alcotest.int "switch count" 20 (Topology.n_switches topo);
  check Alcotest.int "tenant count" 5 (List.length (Topology.tenants topo));
  List.iter
    (fun ten ->
      let n = List.length (Topology.tenant_hosts topo ten) in
      if n < 10 || n > 20 then Alcotest.failf "tenant size %d out of bounds" n)
    (Topology.tenants topo);
  check Alcotest.bool "host count in range" true
    (Topology.n_hosts topo >= 50 && Topology.n_hosts topo <= 100)

let test_placement_locality () =
  let spec =
    {
      Placement.n_switches = 50;
      n_tenants = 10;
      tenant_size_min = 30;
      tenant_size_max = 50;
      racks_per_tenant = 3;
      stray_fraction = 0.0;
    }
  in
  let topo = Placement.generate ~rng:(Prng.create 2) spec in
  (* With no strays, each tenant occupies at most its home racks. *)
  List.iter
    (fun ten ->
      let racks = List.length (Topology.tenant_switches topo ten) in
      if racks > 3 then Alcotest.failf "tenant spread over %d racks" racks)
    (Topology.tenants topo)

let test_placement_deterministic () =
  let topo1 = Placement.generate ~rng:(Prng.create 7) Placement.default in
  let topo2 = Placement.generate ~rng:(Prng.create 7) Placement.default in
  check Alcotest.int "same host count" (Topology.n_hosts topo1) (Topology.n_hosts topo2);
  List.iter2
    (fun (a : Host.t) (b : Host.t) ->
      if not (Ids.Switch_id.equal (Topology.location topo1 a.id) (Topology.location topo2 b.id))
      then Alcotest.fail "placement not deterministic")
    (Topology.hosts topo1) (Topology.hosts topo2)

let test_placement_scaled () =
  let s = Placement.scaled ~factor:10 Placement.default in
  check Alcotest.int "switches x10+1" 2721 s.Placement.n_switches;
  check Alcotest.int "tenants x10" 1200 s.Placement.n_tenants

(* --- Underlay ------------------------------------------------------------------- *)

let encap_packet ~src_sw ~dst_sw =
  let h1 = host 1 0 and h2 = host 2 0 in
  Packet.encap
    ~outer_src:(Ipv4.of_switch_id src_sw)
    ~outer_dst:(Ipv4.of_switch_id dst_sw)
    (Packet.eth_of (Packet.data ~src:h1 ~dst:h2 ~length:64 ()))

let test_underlay_delivery () =
  let e = Engine.create () in
  let u = Underlay.create e ~latency:(Time.of_us 250) () in
  let got = ref [] in
  Underlay.register u (Ipv4.of_switch_id 1) ~post:(Engine.post e) (fun p ->
      got := (p, Time.to_ns (Engine.now e)) :: !got);
  check Alcotest.bool "send accepted" true (Underlay.send u (encap_packet ~src_sw:0 ~dst_sw:1));
  Engine.run e;
  (match !got with
  | [ (_, t) ] -> check Alcotest.int "latency" 250_000 t
  | _ -> Alcotest.fail "expected one delivery");
  check Alcotest.int "delivered" 1 (Underlay.delivered u);
  check Alcotest.bool "bytes counted" true (Underlay.bytes_carried u > 0)

let test_underlay_rejects_plain () =
  let e = Engine.create () in
  let u = Underlay.create e ~latency:Time.zero () in
  let plain = Packet.data ~src:(host 1 0) ~dst:(host 2 0) ~length:1 () in
  check Alcotest.bool "plain rejected" false (Underlay.send u plain);
  check Alcotest.int "drop counted" 1 (Underlay.dropped u)

let test_underlay_unknown_endpoint () =
  let e = Engine.create () in
  let u = Underlay.create e ~latency:Time.zero () in
  check Alcotest.bool "unknown endpoint" false
    (Underlay.send u (encap_packet ~src_sw:0 ~dst_sw:9))

let test_underlay_path_failure () =
  let e = Engine.create () in
  let u = Underlay.create e ~latency:Time.zero () in
  let delivered = ref 0 in
  Underlay.register u (Ipv4.of_switch_id 1) ~post:(Engine.post e) (fun _ -> incr delivered);
  let src = Ipv4.of_switch_id 0 and dst = Ipv4.of_switch_id 1 in
  Underlay.fail_path u ~src ~dst;
  check Alcotest.bool "path down" false (Underlay.path_up u ~src ~dst);
  check Alcotest.bool "dropped on failed path" false
    (Underlay.send u (encap_packet ~src_sw:0 ~dst_sw:1));
  (* The reverse direction is unaffected. *)
  check Alcotest.bool "reverse path up" true (Underlay.path_up u ~src:dst ~dst:src);
  Underlay.repair_path u ~src ~dst;
  check Alcotest.bool "sends after repair" true
    (Underlay.send u (encap_packet ~src_sw:0 ~dst_sw:1));
  Engine.run e;
  check Alcotest.int "one delivery" 1 !delivered

let () =
  Alcotest.run "topo"
    [
      ( "topology",
        [
          Alcotest.test_case "basics" `Quick test_topology_basics;
          Alcotest.test_case "migrate" `Quick test_topology_migrate;
          Alcotest.test_case "duplicate rejected" `Quick test_topology_duplicate_rejected;
          Alcotest.test_case "underlay ip mapping" `Quick test_underlay_ip_mapping;
          Alcotest.test_case "tenant vlan" `Quick test_vlan_of_tenant;
        ] );
      ( "placement",
        [
          Alcotest.test_case "spec respected" `Quick test_placement_generates_spec;
          Alcotest.test_case "rack locality" `Quick test_placement_locality;
          Alcotest.test_case "deterministic" `Quick test_placement_deterministic;
          Alcotest.test_case "scaled" `Quick test_placement_scaled;
        ] );
      ( "underlay",
        [
          Alcotest.test_case "delivery" `Quick test_underlay_delivery;
          Alcotest.test_case "rejects plain" `Quick test_underlay_rejects_plain;
          Alcotest.test_case "unknown endpoint" `Quick test_underlay_unknown_endpoint;
          Alcotest.test_case "path failure" `Quick test_underlay_path_failure;
        ] );
    ]
