(* Integration tests for lazyctrl.core: the host model, the controller
   service queue, and whole-network simulations in both modes — flow
   delivery, ARP resolution, laziness (controller shielding), VM
   migration, and end-to-end failover. *)

open Lazyctrl_net
open Lazyctrl_sim
open Lazyctrl_topo
open Lazyctrl_core
open Lazyctrl_controller
open Lazyctrl_metrics
module Prng = Lazyctrl_util.Prng

let check = Alcotest.check
let sid = Ids.Switch_id.of_int
let hid = Ids.Host_id.of_int
let tid = Ids.Tenant_id.of_int

(* A small deterministic topology: 6 switches, 2 tenants with strong rack
   affinity (tenant 0 on sw0/sw1, tenant 1 on sw4/sw5), which groups
   cleanly into two LCGs. *)
let small_topo () =
  let topo = Topology.create ~n_switches:6 in
  let add i tenant at =
    Topology.add_host topo (Host.make ~id:(hid i) ~tenant:(tid tenant)) ~at:(sid at)
  in
  add 0 0 0;
  add 1 0 0;
  add 2 0 1;
  add 3 0 1;
  add 10 1 4;
  add 11 1 4;
  add 12 1 5;
  add 13 1 5;
  topo

let quick_config =
  {
    Controller.default_config with
    Controller.group_size_limit = 3;
    sync_period = Time.of_sec 5;
    keepalive_period = Time.of_sec 2;
    echo_period = Time.of_sec 5;
    echo_timeout = Time.of_sec 12;
    daemon_period = Time.of_sec 5;
    incremental_updates = false;
  }

let make ?(mode = Network.Lazy) ?(topo = small_topo ()) () =
  let net =
    Network.create ~controller_config:quick_config ~mode ~topo
      ~horizon:(Time.of_hour 1) ()
  in
  Network.bootstrap net ();
  Network.run net ~until:(Time.of_sec 20);
  net

(* --- Service queue ----------------------------------------------------------- *)

let test_service_queue_fifo_and_delay () =
  let e = Engine.create () in
  let q = Service_queue.create e ~service_time:(Time.of_ms 10) in
  let log = ref [] in
  Service_queue.submit q (fun () -> log := (1, Time.to_ns (Engine.now e)) :: !log);
  Service_queue.submit q (fun () -> log := (2, Time.to_ns (Engine.now e)) :: !log);
  check Alcotest.int "queued" 2 (Service_queue.queue_length q);
  Engine.run e;
  (match List.rev !log with
  | [ (1, t1); (2, t2) ] ->
      check Alcotest.int "first after one service" 10_000_000 t1;
      check Alcotest.int "second queues behind" 20_000_000 t2
  | _ -> Alcotest.fail "expected FIFO completion");
  check Alcotest.int "drained" 0 (Service_queue.queue_length q);
  check Alcotest.int "completed" 2 (Service_queue.completed q)

(* --- Host model ---------------------------------------------------------------- *)

let test_host_model_arp_then_data () =
  let e = Engine.create () in
  let sent = ref [] in
  let hm =
    Host_model.create e
      ~send:(fun h p -> sent := (h, p) :: !sent)
      ~arp_ttl:(Time.of_min 10) ~stack_delay:(Time.of_us 30)
  in
  let h1 = Host.make ~id:(hid 1) ~tenant:(tid 0) in
  let h2 = Host.make ~id:(hid 2) ~tenant:(tid 0) in
  Host_model.start_flow hm ~src:h1 ~dst:h2 ~bytes:1000 ~packets:2;
  (* Cold cache: an ARP request goes out, data waits. *)
  (match !sent with
  | [ (_, p) ] -> check Alcotest.bool "ARP first" true (Packet.is_broadcast p)
  | _ -> Alcotest.fail "expected one ARP request");
  check Alcotest.int "arp counted" 1 (Host_model.arp_requests_sent hm);
  check Alcotest.int "pending" 1 (Host_model.pending_resolutions hm);
  (* A second flow to the same target queues without another ARP. *)
  Host_model.start_flow hm ~src:h1 ~dst:h2 ~bytes:1000 ~packets:1;
  check Alcotest.int "no duplicate ARP" 1 (Host_model.arp_requests_sent hm);
  (* Deliver the request to h2: it replies after its stack delay. (The
     engine is advanced only past the stack delay — draining it fully
     would fire the ARP retransmission timers first.) *)
  let request = match !sent with [ (_, p) ] -> p | _ -> assert false in
  sent := [];
  check Alcotest.bool "request handled" true
    (Host_model.deliver hm ~to_:h2 request = Host_model.Arp_handled);
  Engine.run ~until:(Time.of_ms 1) e;
  let reply = match !sent with [ (_, p) ] -> p | _ -> Alcotest.fail "expected reply" in
  sent := [];
  (* Reply resolves the cache and releases both queued flows. *)
  check Alcotest.bool "reply consumed" true
    (Host_model.deliver hm ~to_:h1 reply = Host_model.Arp_handled);
  check Alcotest.int "both data packets out" 2 (List.length !sent);
  check Alcotest.int "flows started" 2 (Host_model.flows_started hm);
  (* Warm cache now: a third flow sends data immediately. *)
  Host_model.start_flow hm ~src:h1 ~dst:h2 ~bytes:10 ~packets:1;
  check Alcotest.int "no new ARP" 1 (Host_model.arp_requests_sent hm)

let test_host_model_arp_retry_and_give_up () =
  let e = Engine.create () in
  let arps = ref 0 in
  (* A black-hole network: every frame vanishes. *)
  let hm =
    Host_model.create e
      ~send:(fun _ p -> if Packet.is_broadcast p then incr arps)
      ~arp_ttl:(Time.of_min 10) ~stack_delay:Time.zero
  in
  let h1 = Host.make ~id:(hid 1) ~tenant:(tid 0) in
  let h2 = Host.make ~id:(hid 2) ~tenant:(tid 0) in
  Host_model.start_flow hm ~src:h1 ~dst:h2 ~bytes:1 ~packets:1;
  Engine.run e;
  (* Initial request plus 4 retransmissions, then the resolution is
     abandoned so later flows can retry fresh. *)
  check Alcotest.int "1 + 4 retries" 5 !arps;
  check Alcotest.int "gave up once" 1 (Host_model.resolutions_failed hm);
  check Alcotest.int "nothing pending" 0 (Host_model.pending_resolutions hm);
  Host_model.start_flow hm ~src:h1 ~dst:h2 ~bytes:1 ~packets:1;
  check Alcotest.int "fresh resolution starts" 6 !arps

let test_host_model_delivery_classification () =
  let e = Engine.create () in
  let sent = ref [] in
  let hm =
    Host_model.create e
      ~send:(fun _ p -> sent := p :: !sent)
      ~arp_ttl:(Time.of_min 10) ~stack_delay:Time.zero
  in
  let h1 = Host.make ~id:(hid 1) ~tenant:(tid 0) in
  let h2 = Host.make ~id:(hid 2) ~tenant:(tid 0) in
  (* Warm the cache directly via an unsolicited reply. *)
  ignore (Host_model.deliver hm ~to_:h1 (Packet.arp_reply ~sender:h2 ~requester:h1 ()));
  Host_model.start_flow hm ~src:h1 ~dst:h2 ~bytes:100 ~packets:3;
  let data = match !sent with [ p ] -> p | _ -> Alcotest.fail "expected data" in
  (match Host_model.deliver hm ~to_:h2 data with
  | Host_model.Data_first meta ->
      check Alcotest.int "packets" 3 meta.Host_model.packets;
      check Alcotest.bool "src/dst" true
        (Ids.Host_id.equal meta.Host_model.src h1.Host.id
        && Ids.Host_id.equal meta.Host_model.dst h2.Host.id)
  | _ -> Alcotest.fail "expected first delivery");
  (* A duplicate (Bloom multicast) is classified as such. *)
  check Alcotest.bool "duplicate" true
    (Host_model.deliver hm ~to_:h2 data = Host_model.Data_duplicate);
  (* A frame for someone else is ignored. *)
  let h3 = Host.make ~id:(hid 3) ~tenant:(tid 0) in
  check Alcotest.bool "not for host" true
    (Host_model.deliver hm ~to_:h3 data = Host_model.Not_for_host)

(* Host-list delivery oracle: [deliver_hosts] over a host list must leave
   the model as [deliver] to each host in list order does — the same
   results for the hosts a frame is for, the same ARP caches and pending
   queues, the same flows delivered and the same replies, in order.
   Frames are ARP requests, ARP replies and IPv4 frames addressed to one
   of the hosts, to a stranger or to the broadcast MAC.  Each world ends
   by starting a flow from every host to every peer: a warm cache sends
   data at once, a cold one sends an ARP request or queues, so the send
   logs expose the caches. *)
let test_host_model_list_delivery_oracle =
  let hosts = List.init 5 (fun i -> Host.make ~id:(hid (i + 1)) ~tenant:(tid (i mod 2))) in
  let stranger = Host.make ~id:(hid 99) ~tenant:(tid 0) in
  let nth i = if i < 5 then List.nth hosts i else stranger in
  let world () =
    let e = Engine.create () in
    let log = ref [] in
    let hm =
      Host_model.create e
        ~send:(fun h p -> log := (Ids.Host_id.to_int h.Host.id, p) :: !log)
        ~arp_ttl:(Time.of_min 10) ~stack_delay:(Time.of_us 30)
    in
    (* Pending resolutions: host 1 waits for host 2, host 3 for the
       stranger. *)
    Host_model.start_flow hm ~src:(nth 0) ~dst:(nth 1) ~bytes:100 ~packets:2;
    Host_model.start_flow hm ~src:(nth 2) ~dst:stranger ~bytes:100 ~packets:1;
    (* Flows 0-2 in flight: host 4 knows host 5, host 5 knows host 1. *)
    ignore
      (Host_model.deliver hm ~to_:(nth 3) (Packet.arp_reply ~sender:(nth 4) ~requester:(nth 3) ()));
    ignore
      (Host_model.deliver hm ~to_:(nth 4) (Packet.arp_reply ~sender:(nth 0) ~requester:(nth 4) ()));
    Host_model.start_flow hm ~src:(nth 3) ~dst:(nth 4) ~bytes:100 ~packets:2;
    Host_model.start_flow hm ~src:(nth 4) ~dst:(nth 0) ~bytes:100 ~packets:3;
    Host_model.start_flow hm ~src:(nth 3) ~dst:(nth 4) ~bytes:100 ~packets:1;
    (e, hm, log)
  in
  (* kind 0: ARP request for host [a]'s IP; 1: ARP reply from host [b]
     to MAC [a]; 2: IPv4 frame of flow [b mod 4] to MAC [a].  [a] = 5 is
     the stranger, and 6 the broadcast MAC (the stranger's IP for a
     request). *)
  let frame (kind, a, b) =
    let to_mac eth =
      let dst = if a = 6 then Mac.broadcast else (nth a).Host.mac in
      Packet.Plain { eth with Packet.dst }
    in
    match kind with
    | 0 -> Packet.arp_request ~sender:(nth b) ~target_ip:(nth (min a 5)).Host.ip ()
    | 1 -> to_mac (Packet.eth_of (Packet.arp_reply ~sender:(nth b) ~requester:(nth 0) ()))
    | _ ->
        let id = b mod 4 in
        to_mac
          (Packet.eth_of
             (Packet.data ~src:(nth 3) ~dst:(nth 4) ~src_port:(id land 0xffff)
                ~dst_port:(id lsr 16) ~length:100 ()))
  in
  let gen =
    let open QCheck2.Gen in
    list_size (int_range 1 12)
      (pair
         (triple (int_range 0 2) (int_range 0 6) (int_range 0 5))
         (let* order = shuffle_l hosts in
          map (fun k -> List.filteri (fun i _ -> i < k) order) (int_range 0 5)))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300
       ~name:"host-list delivery equals one delivery per host" gen (fun script ->
         let ea, a, log_a = world () and eb, b, log_b = world () in
         let got_a = ref [] and got_b = ref [] in
         let note got (h : Host.t) d = got := (Ids.Host_id.to_int h.id, d) :: !got in
         List.iter
           (fun (f, targets) ->
             let pkt = frame f in
             Host_model.deliver_hosts a targets pkt (note got_a);
             List.iter
               (fun h ->
                 match Host_model.deliver b ~to_:h pkt with
                 | Host_model.Not_for_host -> ()
                 | d -> note got_b h d)
               targets;
             Engine.run ~until:(Time.add (Engine.now ea) (Time.of_us 20)) ea;
             Engine.run ~until:(Time.add (Engine.now eb) (Time.of_us 20)) eb)
           script;
         let counts hm =
           Host_model.
             [
               flows_started hm; flows_delivered hm; arp_requests_sent hm;
               pending_resolutions hm; resolutions_failed hm;
             ]
         in
         let same_counts = counts a = counts b in
         Engine.run ~until:(Time.of_ms 1) ea;
         Engine.run ~until:(Time.of_ms 1) eb;
         List.iter
           (fun (hm, src) ->
             List.iter
               (fun dst ->
                 if not (Host.equal src dst) then
                   Host_model.start_flow hm ~src ~dst ~bytes:10 ~packets:1)
               (stranger :: hosts))
           (List.concat_map (fun h -> [ (a, h); (b, h) ]) hosts);
         same_counts && counts a = counts b && !got_a = !got_b && !log_a = !log_b))

(* --- End-to-end, lazy mode ------------------------------------------------------ *)

let run_flow net ~src ~dst =
  let before = Host_model.flows_delivered (Network.host_model net) in
  Network.start_flow net ~src ~dst ~bytes:2000 ~packets:2;
  Network.run net
    ~until:(Time.add (Engine.now (Network.engine net)) (Time.of_sec 5));
  Host_model.flows_delivered (Network.host_model net) - before

let test_lazy_intra_switch_flow () =
  let net = make () in
  check Alcotest.int "delivered" 1 (run_flow net ~src:(hid 0) ~dst:(hid 1));
  (* Same switch: the controller was never involved. *)
  let c = Option.get (Network.lazy_controller net) in
  check Alcotest.int "no packet-ins" 0 (Controller.stats c).Controller.packet_ins

let test_lazy_intra_group_flow_shields_controller () =
  let net = make () in
  (* sw0 and sw1 host tenant 0 and are grouped together by the placement
     prior; h0 (sw0) -> h2 (sw1) must stay in the data plane. *)
  let c = Option.get (Network.lazy_controller net) in
  let g = Option.get (Controller.grouping c) in
  check Alcotest.bool "same LCG" true
    (Lazyctrl_grouping.Grouping.same_group g (sid 0) (sid 1));
  check Alcotest.int "delivered" 1 (run_flow net ~src:(hid 0) ~dst:(hid 2));
  check Alcotest.int "controller shielded" 0 (Controller.stats c).Controller.packet_ins;
  let stats = Network.switch_stats_sum net in
  check Alcotest.bool "went through the G-FIB" true
    (stats.Lazyctrl_switch.Edge_switch.gfib_handled
     + stats.Lazyctrl_switch.Edge_switch.flow_table_handled
    > 0)

let test_lazy_inter_group_flow_uses_controller () =
  let net = make () in
  let c = Option.get (Network.lazy_controller net) in
  let g = Option.get (Controller.grouping c) in
  check Alcotest.bool "different LCGs" false
    (Lazyctrl_grouping.Grouping.same_group g (sid 0) (sid 4));
  check Alcotest.int "delivered across groups" 1 (run_flow net ~src:(hid 0) ~dst:(hid 10));
  check Alcotest.bool "controller involved" true
    ((Controller.stats c).Controller.requests > 0)

let test_lazy_latency_recorded () =
  let net = make () in
  ignore (run_flow net ~src:(hid 0) ~dst:(hid 2));
  let s = Recorder.first_latency_summary (Network.recorder net) in
  check Alcotest.int "one first-packet sample" 1 (Lazyctrl_util.Stats.Online.count s);
  (* Intra-group cold-cache latency sits well under a controller RTT. *)
  check Alcotest.bool "sub-2ms" true (Lazyctrl_util.Stats.Online.mean s < 2.0)

let test_lazy_migration_end_to_end () =
  let net = make () in
  ignore (run_flow net ~src:(hid 0) ~dst:(hid 2));
  (* Move h2 from sw1 to sw0; adverts must propagate and traffic follow. *)
  Network.migrate_host net (hid 2) ~to_:(sid 0);
  Network.run net ~until:(Time.add (Engine.now (Network.engine net)) (Time.of_sec 10));
  check Alcotest.int "reachable after migration" 1 (run_flow net ~src:(hid 1) ~dst:(hid 2));
  let c = Option.get (Network.lazy_controller net) in
  (match Clib.locate_mac (Controller.clib c)
           (Topology.host (Network.topology net) (hid 2)).Host.mac
   with
  | Some sw -> check Alcotest.int "C-LIB tracked the move" 0 (Ids.Switch_id.to_int sw)
  | None -> Alcotest.fail "C-LIB lost the host")

let test_lazy_switch_failover_end_to_end () =
  let net = make () in
  let c = Option.get (Network.lazy_controller net) in
  let verdicts = ref [] in
  Controller.set_failover_hook c (fun sw v -> verdicts := (sw, v) :: !verdicts);
  Network.fail_switch net (sid 1);
  Network.run net ~until:(Time.add (Engine.now (Network.engine net)) (Time.of_min 2));
  check Alcotest.bool "switch failure detected" true
    (List.exists (fun (sw, v) -> Ids.Switch_id.equal sw (sid 1) && v = Failover.Switch_failure)
       !verdicts);
  (match Network.edge_switch net (sid 1) with
  | Some sw -> check Alcotest.bool "rebooted" true (Lazyctrl_switch.Edge_switch.is_up sw)
  | None -> Alcotest.fail "switch object missing");
  (* After recovery and re-sync, traffic to its hosts flows again. *)
  check Alcotest.int "recovered datapath" 1 (run_flow net ~src:(hid 0) ~dst:(hid 2))

let test_lazy_data_path_detour () =
  let net = make () in
  ignore (run_flow net ~src:(hid 0) ~dst:(hid 2));
  (* Break sw0 -> sw1 and notify: the controller installs detour rules via
     another member of sw1's group, so traffic still arrives. *)
  Network.fail_data_path net ~src:(sid 0) ~dst:(sid 1) ~notify:true;
  Network.run net ~until:(Time.add (Engine.now (Network.engine net)) (Time.of_sec 2));
  check Alcotest.int "detoured delivery" 1 (run_flow net ~src:(hid 0) ~dst:(hid 2))

let test_deploy_host () =
  let net = make () in
  let fresh = Host.make ~id:(hid 99) ~tenant:(tid 0) in
  Network.deploy_host net fresh ~at:(sid 1);
  Network.run net ~until:(Time.add (Engine.now (Network.engine net)) (Time.of_sec 10));
  check Alcotest.int "new VM reachable" 1 (run_flow net ~src:(hid 0) ~dst:(hid 99))

(* --- End-to-end, OpenFlow mode ---------------------------------------------------- *)

let test_openflow_flow_delivery () =
  let net = make ~mode:Network.Openflow () in
  check Alcotest.int "delivered" 1 (run_flow net ~src:(hid 0) ~dst:(hid 2));
  let c = Option.get (Network.of_controller net) in
  check Alcotest.bool "controller did the work" true
    ((Lazyctrl_baseline.Of_controller.stats c).Lazyctrl_baseline.Of_controller.requests
    > 0)

let test_openflow_latency_higher_than_lazy () =
  let lazy_net = make () in
  ignore (run_flow lazy_net ~src:(hid 0) ~dst:(hid 2));
  let of_net = make ~mode:Network.Openflow () in
  ignore (run_flow of_net ~src:(hid 0) ~dst:(hid 2));
  let mean net = Lazyctrl_util.Stats.Online.mean (Recorder.first_latency_summary (Network.recorder net)) in
  check Alcotest.bool "lazy beats OpenFlow cold-cache" true
    (mean lazy_net < mean of_net)

(* A seeded 8-switch data centre under a real-like trace over three
   2-hour buckets: cold ARP caches flood every switch, and one VM moves
   mid-run.  The constants pin the OpenFlow plane's simulated
   observables, which must not depend on how many engine events carry a
   flood's host deliveries (DESIGN.md §6). *)
let pinned_run ?controller_config mode =
  let topo =
    Placement.generate ~rng:(Prng.create 23)
      {
        Placement.n_switches = 8;
        n_tenants = 4;
        tenant_size_min = 6;
        tenant_size_max = 10;
        racks_per_tenant = 2;
        stray_fraction = 0.1;
      }
  in
  let trace =
    Lazyctrl_traffic.Gen.real_like ~rng:(Prng.create 24) ~topo ~n_flows:400
      ~duration:(Time.of_hour 6) ()
  in
  let net =
    Network.create ?controller_config ~mode ~topo ~horizon:(Time.of_hour 6) ()
  in
  (match mode with
  | Network.Lazy -> Network.bootstrap net ()
  | Network.Openflow -> ());
  Network.replay net trace;
  Network.run net ~until:(Time.of_hour 3);
  let moved = List.hd (Topology.hosts topo) in
  let from = Ids.Switch_id.to_int (Topology.location topo moved.Host.id) in
  Network.migrate_host net moved.Host.id ~to_:(sid ((from + 1) mod 8));
  Network.run net ~until:(Time.of_hour 6);
  net

let latency_series net =
  Recorder.first_latency_ms_series (Network.recorder net)
  |> Array.to_list
  |> List.map (Printf.sprintf "%.9f")
  |> String.concat " "

let of_pinned_run () =
  let net = pinned_run Network.Openflow in
  let module Ofc = Lazyctrl_baseline.Of_controller in
  let module Ofs = Lazyctrl_baseline.Of_switch in
  let c = Ofc.stats (Option.get (Network.of_controller net)) in
  let sum f =
    List.fold_left
      (fun acc i -> acc + f (Ofs.stats (Option.get (Network.of_switch net (sid i)))))
      0 (List.init 8 Fun.id)
  in
  let recorder = Network.recorder net in
  ( [
      ("flows delivered", Host_model.flows_delivered (Network.host_model net));
      ("controller requests", c.Ofc.requests);
      ("controller packet_ins", c.Ofc.packet_ins);
      ("controller flow_mods_sent", c.Ofc.flow_mods_sent);
      ("controller packet_outs_sent", c.Ofc.packet_outs_sent);
      ("controller buffer_outs_sent", c.Ofc.buffer_outs_sent);
      ("controller floods", c.Ofc.floods);
      ("controller learned_macs", c.Ofc.learned_macs);
      ("switch packets_from_hosts", sum (fun s -> s.Ofs.packets_from_hosts));
      ("switch packets_delivered", sum (fun s -> s.Ofs.packets_delivered));
      ("switch encap_sent", sum (fun s -> s.Ofs.encap_sent));
      ("switch flow_table_handled", sum (fun s -> s.Ofs.flow_table_handled));
      ("switch punted", sum (fun s -> s.Ofs.punted));
      ("recorder requests", Recorder.total_requests recorder);
    ],
    latency_series net )

let test_openflow_pinned () =
  let counts, series = of_pinned_run () in
  check Alcotest.(list (pair string int)) "observables"
    [
      ("flows delivered", 394);
      ("controller requests", 746);
      ("controller packet_ins", 746);
      ("controller flow_mods_sent", 363);
      ("controller packet_outs_sent", 1351);
      ("controller buffer_outs_sent", 746);
      ("controller floods", 193);
      ("controller learned_macs", 34);
      ("switch packets_from_hosts", 750);
      ("switch packets_delivered", 7850);
      ("switch encap_sent", 367);
      ("switch flow_table_handled", 4);
      ("switch punted", 746);
      ("recorder requests", 746);
    ]
    counts;
  check Alcotest.string "first-packet latency series (ms)"
    "6.674202899 6.711129032 6.653181818" series

(* The same data centre, trace and migration on the lazy plane, in two
   groups of four so that cross-group flows reach the controller and
   its C-LIB. At the default 60 s sync every switch re-sends its whole
   L-FIB every 5 min, so the run crosses dozens of full re-advert
   cycles: the constants pin that a re-advert equal to what a G-FIB or
   the C-LIB already holds changes nothing a run can observe. *)
let test_lazy_pinned () =
  let controller_config = { Controller.default_config with group_size_limit = 4 } in
  let net = pinned_run ~controller_config Network.Lazy in
  let c = Controller.stats (Option.get (Network.lazy_controller net)) in
  let s = Network.switch_stats_sum net in
  let module Es = Lazyctrl_switch.Edge_switch in
  check Alcotest.(list (pair string int)) "observables"
    [
      ("flows delivered", 400);
      ("controller requests", 810);
      ("controller state_reports", 720);
      ("switch gfib_handled", 307);
      ("switch fp_drops", 0);
      ("switch punted", 60);
      ("clib entries", 36);
    ]
    [
      ("flows delivered", Host_model.flows_delivered (Network.host_model net));
      ("controller requests", c.Controller.requests);
      ("controller state_reports", c.Controller.state_reports);
      ("switch gfib_handled", s.Es.gfib_handled);
      ("switch fp_drops", s.Es.fp_drops);
      ("switch punted", s.Es.punted);
      ( "clib entries",
        Clib.n_entries (Controller.clib (Option.get (Network.lazy_controller net))) );
    ];
  check Alcotest.string "first-packet latency series (ms)"
    "0.702377622 0.893790323 0.930225564" (latency_series net)

let test_modes_accessors () =
  let net = make () in
  check Alcotest.bool "lazy accessors" true
    (Network.lazy_controller net <> None && Network.of_controller net = None
    && Network.edge_switch net (sid 0) <> None
    && Network.of_switch net (sid 0) = None);
  let net2 = make ~mode:Network.Openflow () in
  check Alcotest.bool "openflow accessors" true
    (Network.of_controller net2 <> None && Network.lazy_controller net2 = None)

let test_default_intensity_prior () =
  let topo = small_topo () in
  let g = Network.default_intensity topo in
  (* Tenant co-location: sw0-sw1 and sw4-sw5 share tenants, sw0-sw4 do not. *)
  let pair u v =
    Lazyctrl_graph.Wgraph.(total_edge_weight (fst (induced g [| u; v |])))
  in
  check Alcotest.bool "same-tenant edge" true (pair 0 1 > 0.0);
  check (Alcotest.float 1e-9) "no cross-tenant edge" 0.0 (pair 0 4)

let test_replay_through_network () =
  let topo = small_topo () in
  let b = Lazyctrl_traffic.Trace.Builder.create ~n_hosts:14 ~duration:(Time.of_min 5) in
  for i = 1 to 20 do
    Lazyctrl_traffic.Trace.Builder.add b
      ~time:(Time.of_sec (30 + i))
      ~src:(hid (i mod 2))
      ~dst:(hid (2 + (i mod 2)))
      ~bytes:500 ~packets:1
  done;
  let trace = Lazyctrl_traffic.Trace.Builder.build b in
  let net =
    Network.create ~controller_config:quick_config ~mode:Network.Lazy ~topo
      ~horizon:(Time.of_min 10) ()
  in
  Network.bootstrap net ();
  Network.replay net trace;
  Network.run net ~until:(Time.of_min 10);
  check Alcotest.int "all flows delivered" 20
    (Host_model.flows_delivered (Network.host_model net));
  (* Workload was recorded in the right buckets. *)
  check Alcotest.bool "recorder saw requests or not, but no crash" true
    (Recorder.total_requests (Network.recorder net) >= 0)

let () =
  Alcotest.run "network"
    [
      ( "service_queue",
        [ Alcotest.test_case "FIFO and delay" `Quick test_service_queue_fifo_and_delay ] );
      ( "host_model",
        [
          Alcotest.test_case "ARP then data" `Quick test_host_model_arp_then_data;
          Alcotest.test_case "ARP retry and give-up" `Quick test_host_model_arp_retry_and_give_up;
          Alcotest.test_case "delivery classes" `Quick test_host_model_delivery_classification;
          test_host_model_list_delivery_oracle;
        ] );
      ( "lazy end-to-end",
        [
          Alcotest.test_case "intra-switch" `Quick test_lazy_intra_switch_flow;
          Alcotest.test_case "intra-group shields controller" `Quick
            test_lazy_intra_group_flow_shields_controller;
          Alcotest.test_case "inter-group via controller" `Quick
            test_lazy_inter_group_flow_uses_controller;
          Alcotest.test_case "latency recorded" `Quick test_lazy_latency_recorded;
          Alcotest.test_case "VM migration" `Quick test_lazy_migration_end_to_end;
          Alcotest.test_case "switch failover" `Quick test_lazy_switch_failover_end_to_end;
          Alcotest.test_case "data-path detour" `Quick test_lazy_data_path_detour;
          Alcotest.test_case "deploy host" `Quick test_deploy_host;
          Alcotest.test_case "pinned observables" `Quick test_lazy_pinned;
        ] );
      ( "openflow end-to-end",
        [
          Alcotest.test_case "delivery" `Quick test_openflow_flow_delivery;
          Alcotest.test_case "latency comparison" `Quick test_openflow_latency_higher_than_lazy;
          Alcotest.test_case "pinned observables" `Quick test_openflow_pinned;
        ] );
      ( "wiring",
        [
          Alcotest.test_case "mode accessors" `Quick test_modes_accessors;
          Alcotest.test_case "placement prior" `Quick test_default_intensity_prior;
          Alcotest.test_case "trace replay" `Quick test_replay_through_network;
        ] );
    ]
