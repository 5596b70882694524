(* Tests for the reliable-delivery layer, strict channel wiring, graceful
   degradation under control-link loss, and the chaos subsystem's
   deterministic end-to-end acceptance scenario. *)

open Lazyctrl_net
open Lazyctrl_sim
open Lazyctrl_openflow
open Lazyctrl_switch
open Lazyctrl_controller
open Lazyctrl_core
open Lazyctrl_chaos

let check = Alcotest.check
let sid = Ids.Switch_id.of_int

(* --- Reliable: a two-endpoint harness over a scriptable wire ----------------- *)

type wire = {
  mutable drop : int -> bool;  (** by data-transmission index *)
  mutable dup : bool;
  mutable tx : int;
}

(* [a] sends ints to [b]; acks flow back. Data and acks each take 1 ms. *)
let make_pair ?(config = Reliable.default_config) engine =
  let wire = { drop = (fun _ -> false); dup = false; tx = 0 } in
  let got = ref [] in
  let a_ref = ref None and b_ref = ref None in
  let a =
    Reliable.create engine config
      ~send_data:(fun ~epoch ~seq payload ->
        let i = wire.tx in
        wire.tx <- wire.tx + 1;
        if not (wire.drop i) then begin
          let deliver () =
            match !b_ref with
            | Some b ->
                List.iter
                  (fun v -> got := v :: !got)
                  (Reliable.handle_data b ~epoch ~seq payload)
            | None -> ()
          in
          ignore (Engine.schedule engine ~after:(Time.of_ms 1) deliver);
          if wire.dup then
            ignore (Engine.schedule engine ~after:(Time.of_ms 2) deliver)
        end)
      ~send_ack:(fun ~epoch:_ ~cum:_ -> ())
      ~name:"a" ()
  in
  let b =
    Reliable.create engine config
      ~send_data:(fun ~epoch:_ ~seq:_ _ -> ())
      ~send_ack:(fun ~epoch ~cum ->
        ignore
          (Engine.schedule engine ~after:(Time.of_ms 1) (fun () ->
               match !a_ref with
               | Some a -> Reliable.handle_ack a ~epoch ~cum
               | None -> ())))
      ~name:"b" ()
  in
  a_ref := Some a;
  b_ref := Some b;
  (a, b, wire, got)

let received got = List.rev !got

let test_reliable_in_order_under_loss () =
  let e = Engine.create () in
  let a, b, wire, got = make_pair e in
  check Alcotest.string "session carries its diagnostic name" "a"
    (Reliable.name a);
  wire.drop <- (fun i -> i mod 3 = 2);
  for i = 0 to 9 do
    Reliable.send a i
  done;
  Engine.run ~until:(Time.of_sec 60) e;
  check (Alcotest.list Alcotest.int) "all delivered in order"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (received got);
  check Alcotest.bool "retransmissions happened" true
    ((Reliable.stats a).Reliable.retransmits > 0);
  check Alcotest.int "no exactly-once violations" 0
    ((Reliable.stats b).Reliable.violations);
  check Alcotest.int "nothing in flight" 0 (Reliable.in_flight a)

let test_reliable_dedups_duplicates () =
  let e = Engine.create () in
  let a, b, wire, got = make_pair e in
  wire.dup <- true;
  for i = 0 to 4 do
    Reliable.send a i
  done;
  Engine.run ~until:(Time.of_sec 30) e;
  check (Alcotest.list Alcotest.int) "each exactly once" [ 0; 1; 2; 3; 4 ]
    (received got);
  check Alcotest.bool "duplicates suppressed" true
    ((Reliable.stats b).Reliable.dups_ignored > 0);
  check Alcotest.int "no violations" 0 ((Reliable.stats b).Reliable.violations)

let test_reliable_epoch_reset () =
  let e = Engine.create () in
  let a, b, _wire, got = make_pair e in
  List.iter (Reliable.send a) [ 1; 2; 3 ];
  Engine.run ~until:(Time.of_sec 10) e;
  (* The sender reboots: seq restarts at 0 in a fresh epoch; the receiver
     must adopt it rather than treat seq 0 as a stale duplicate. *)
  Reliable.reset a;
  check Alcotest.int "new epoch" 1 (Reliable.epoch a);
  List.iter (Reliable.send a) [ 10; 11 ];
  Engine.run ~until:(Time.of_sec 20) e;
  check (Alcotest.list Alcotest.int) "post-reset stream delivered"
    [ 1; 2; 3; 10; 11 ] (received got);
  check Alcotest.int "no violations" 0 ((Reliable.stats b).Reliable.violations)

let test_reliable_give_up_and_kick () =
  let e = Engine.create () in
  let a, _b, wire, got = make_pair e in
  wire.drop <- (fun _ -> true);
  Reliable.send a 42;
  Engine.run ~until:(Time.of_min 5) e;
  check Alcotest.bool "gave up after max retries" true (Reliable.has_given_up a);
  check Alcotest.bool "give-up counted" true
    ((Reliable.stats a).Reliable.give_ups > 0);
  check (Alcotest.list Alcotest.int) "nothing delivered" [] (received got);
  (* Link repaired, session kicked: the queued payload finally lands. *)
  wire.drop <- (fun _ -> false);
  Reliable.kick a;
  Engine.run ~until:(Time.of_min 10) e;
  check (Alcotest.list Alcotest.int) "delivered after kick" [ 42 ] (received got)

let test_reliable_tail_drop () =
  let e = Engine.create () in
  let config = { Reliable.default_config with Reliable.max_queue = 3 } in
  let a, _b, wire, _got = make_pair ~config e in
  wire.drop <- (fun _ -> true);
  for i = 0 to 4 do
    Reliable.send a i
  done;
  check Alcotest.int "window bounded" 3 (Reliable.in_flight a);
  check Alcotest.int "excess tail-dropped" 2
    ((Reliable.stats a).Reliable.tail_dropped)

(* --- strict channel wiring ----------------------------------------------------- *)

let test_strict_channel_raises () =
  let e = Engine.create () in
  let ch = Channel.create ~strict:true e ~post:(Engine.post e) ~latency:(Time.of_ms 1) ~name:"x" () in
  check Alcotest.bool "send accepted" true (Channel.send ch 42);
  Alcotest.check_raises "delivery without a receiver is a wiring bug"
    (Invalid_argument
       "Channel x: message delivered before any receiver was set (wiring-order \
        bug)")
    (fun () -> Engine.run e);
  (* A lax channel merely counts the drop. *)
  let e2 = Engine.create () in
  let lax = Channel.create e2 ~post:(Engine.post e2) ~latency:(Time.of_ms 1) ~name:"y" () in
  ignore (Channel.send lax 42);
  Engine.run e2;
  check Alcotest.int "lax drop counted" 1 (Channel.dropped lax)

(* --- graceful degradation under control-link failure --------------------------- *)

let quick_config =
  {
    Controller.default_config with
    Controller.group_size_limit = 6;
    sync_period = Time.of_sec 10;
    keepalive_period = Time.of_sec 2;
    echo_period = Time.of_sec 5;
    echo_timeout = Time.of_sec 12;
    daemon_period = Time.of_sec 5;
    incremental_updates = false;
  }

let small_topo seed =
  let spec =
    {
      Lazyctrl_topo.Placement.n_switches = 12;
      n_tenants = 6;
      tenant_size_min = 8;
      tenant_size_max = 16;
      racks_per_tenant = 3;
      stray_fraction = 0.05;
    }
  in
  Lazyctrl_topo.Placement.generate
    ~rng:(Lazyctrl_util.Prng.create (seed * 7 + 3))
    spec

let make_net ?(reliable = true) ?(seed = 11) () =
  let topo = small_topo seed in
  let params =
    {
      (Params.with_seed seed Params.default) with
      Params.switch_config =
        { Edge_switch.default_config with Edge_switch.reliable_state = reliable };
    }
  in
  let controller_config =
    { quick_config with Controller.reliable_state = reliable }
  in
  let net =
    Network.create ~params ~controller_config ~mode:Network.Lazy ~topo
      ~horizon:(Time.of_hour 1) ()
  in
  Network.bootstrap net ();
  Network.run net ~until:(Time.of_sec 20);
  (net, topo)

let group_of controller sw =
  match Controller.group_config_of controller sw with
  | Some cfg -> Some cfg.Proto.group
  | None -> None

(* A same-tenant host pair whose switches sit in different groups (so
   traffic between them punts to the controller). *)
let cross_group_pair topo controller =
  let module T = Lazyctrl_topo.Topology in
  let pairs =
    List.concat_map
      (fun tid ->
        let hosts = T.tenant_hosts topo tid in
        List.concat_map
          (fun (a : Host.t) ->
            List.filter_map
              (fun (b : Host.t) ->
                let sa = T.location topo a.Host.id
                and sb = T.location topo b.Host.id in
                if
                  (not (Ids.Host_id.equal a.Host.id b.Host.id))
                  && (not (Ids.Switch_id.equal sa sb))
                  && group_of controller sa <> group_of controller sb
                then Some (a, b)
                else None)
              hosts)
          hosts)
      (T.tenants topo)
  in
  match pairs with [] -> Alcotest.fail "no cross-group pair" | p :: _ -> p

let clib_row_matches net controller sw =
  match Network.edge_switch net sw with
  | None -> false
  | Some es ->
      let sorted = List.sort_uniq Proto.host_key_compare in
      List.equal Proto.host_key_equal
        (sorted (Lfib.all_keys (Edge_switch.lfib es)))
        (sorted (Clib.row (Controller.clib controller) sw))

let test_degradation_and_reconnect () =
  let net, topo = make_net () in
  check Alcotest.int "every switch live after bootstrap"
    (Lazyctrl_topo.Topology.n_switches topo)
    (List.length (Invariant.live_switches net));
  let controller = Option.get (Network.lazy_controller net) in
  let h1, h2 = cross_group_pair topo controller in
  let sw1 = Lazyctrl_topo.Topology.location topo h1.Host.id in
  let es1 = Option.get (Network.edge_switch net sw1) in
  let engine = Network.engine net in
  let until dt = Network.run net ~until:(Time.add (Engine.now engine) dt) in
  (* Sever the control link, then hit the switch with an inter-group miss
     (a raw data frame, bypassing ARP — cross-group ARP itself needs the
     controller): the punt cannot reach the controller and must be
     buffered. *)
  Network.fail_control_link net sw1;
  Edge_switch.handle_from_host es1 h1 (Packet.data ~src:h1 ~dst:h2 ~length:1000 ());
  until (Time.of_sec 1);
  check Alcotest.bool "control link suspect" true
    (Edge_switch.control_link_suspect es1);
  check Alcotest.bool "miss buffered" true (Edge_switch.misses_pending es1 > 0);
  (* Intra-group forwarding keeps working from the local tables. *)
  let delivered_before = (Edge_switch.stats es1).Edge_switch.packets_delivered in
  (match Lazyctrl_topo.Topology.hosts_at topo sw1 with
  | a :: b :: _ ->
      Edge_switch.handle_from_host es1 a (Packet.data ~src:a ~dst:b ~length:500 ());
      until (Time.of_sec 1);
      check Alcotest.bool "intra-group still served" true
        ((Edge_switch.stats es1).Edge_switch.packets_delivered > delivered_before)
  | _ -> ());
  (* Repair before the echo timeout: the next controller echo triggers the
     reconnect — buffered misses replayed, full advert re-syncs the C-LIB. *)
  Network.repair_control_link net sw1;
  until (Time.of_sec 8);
  let s = Edge_switch.stats es1 in
  check Alcotest.bool "misses replayed" true (s.Edge_switch.misses_replayed > 0);
  check Alcotest.int "buffer drained" 0 (Edge_switch.misses_pending es1);
  check Alcotest.bool "suspicion cleared" false
    (Edge_switch.control_link_suspect es1);
  until (Time.of_sec 15);
  check Alcotest.bool "C-LIB row re-synced" true
    (clib_row_matches net controller sw1)

(* --- the discriminating test: fire-and-forget loses state, reliable heals ---- *)

(* Under a total loss burst on the control links spanning a VM migration,
   the old path loses the State_report carrying the L-FIB deltas forever
   (nothing retransmits, and the designated's delta buffer was drained by
   the send); the reliable layer retransmits it once the burst ends. The
   storm leaves peer links clean so keep-alives keep flowing — otherwise
   ring alarms escalate to a reboot whose recovery re-sync would mask the
   loss. *)
let migrate_under_total_loss ~reliable =
  let net, topo = make_net ~reliable ~seed:23 () in
  let controller = Option.get (Network.lazy_controller net) in
  let engine = Network.engine net in
  let until dt = Network.run net ~until:(Time.add (Engine.now engine) dt) in
  (* Pick a host the C-LIB already knows and a different target switch. *)
  let host =
    List.find
      (fun (h : Host.t) ->
        Clib.locate_mac (Controller.clib controller) h.Host.mac <> None)
      (Lazyctrl_topo.Topology.hosts topo)
  in
  let from_sw = Lazyctrl_topo.Topology.location topo host.Host.id in
  let to_sw =
    Ids.Switch_id.of_int
      ((Ids.Switch_id.to_int from_sw + 3)
      mod Lazyctrl_topo.Topology.n_switches topo)
  in
  let total = Channel.uniform_loss 1.0 in
  Network.set_control_loss net (Some total);
  Network.migrate_host net host.Host.id ~to_:to_sw;
  (* Flush twice inside the loss window: the first flush makes the members
     advertise their migration deltas to the designated switches over the
     (clean) peer links; after the adverts land, the second flush makes
     the designateds emit the State_reports carrying them — which the
     storm eats. Without this the deltas would sit in pending buffers
     until a sync tick after the storm clears and nothing would be lost. *)
  let flush_all () =
    List.iter
      (fun sw ->
        match Network.edge_switch net sw with
        | Some es when Edge_switch.is_up es -> Edge_switch.flush_report es
        | _ -> ())
      (Lazyctrl_topo.Topology.switches topo)
  in
  flush_all ();
  until (Time.of_ms 10);
  flush_all ();
  until (Time.of_sec 5);
  Network.set_control_loss net None;
  (* Check well before the mod-5 full-re-advert self-heal (first one fires
     ~40-50s after adoption): reliable sessions retransmit the eaten
     State_reports within seconds of the storm clearing, while the
     fire-and-forget path has nothing left to send — the deltas were
     consumed and lost — so the C-LIB keeps the stale location until the
     next periodic full advert, tens of seconds later. *)
  until (Time.of_sec 10);
  let located =
    Clib.locate_mac (Controller.clib controller) host.Host.mac
    |> Option.map Ids.Switch_id.to_int
    |> Option.value ~default:(-1)
  in
  (located, Ids.Switch_id.to_int from_sw, Ids.Switch_id.to_int to_sw)

let test_reliable_heals_migration_loss () =
  let located, _old, expected = migrate_under_total_loss ~reliable:true in
  check Alcotest.int "C-LIB converged to the new location" expected located

let test_fire_and_forget_loses_migration () =
  let located, old_loc, _expected = migrate_under_total_loss ~reliable:false in
  check Alcotest.int
    "old fire-and-forget path left the C-LIB stale (the bug the reliable \
     layer fixes)"
    old_loc located

(* --- chaos acceptance: seeded multi-fault scenario, byte-identical twice ------ *)

let test_chaos_scenario_deterministic_and_convergent () =
  let cfg = Runner.default_config in
  let r1 = Runner.run cfg in
  let r2 = Runner.run cfg in
  check Alcotest.string "byte-identical fingerprints" r1.Runner.fingerprint
    r2.Runner.fingerprint;
  let kinds =
    List.sort_uniq compare
      (List.map (fun e -> e.Fault.kind) r1.Runner.events)
  in
  check Alcotest.bool
    (Printf.sprintf "at least 5 fault kinds injected (got: %s)"
       (String.concat ", " (List.map Fault.kind_label kinds)))
    true
    (List.length kinds >= 5);
  check Alcotest.bool "channels actually lost messages" true
    (r1.Runner.link.Network.links_lost > 0);
  check Alcotest.bool "retransmissions happened" true
    (r1.Runner.reliability.Reliable.retransmits > 0);
  List.iter
    (fun (r : Invariant.report) ->
      check Alcotest.bool
        (Format.asprintf "invariant holds at quiescence: %a" Invariant.pp_report
           r)
        true r.Invariant.ok)
    r1.Runner.reports;
  check Alcotest.bool "converged before the settle deadline" true
    (r1.Runner.converged_after <> None)

let test_scenario_generation_deterministic () =
  let gen seed =
    Scenario.generate
      ~rng:(Lazyctrl_util.Prng.create seed)
      ~n_switches:8 Scenario.default
  in
  let fmt events =
    String.concat ";" (List.map (Format.asprintf "%a" Fault.pp_event) events)
  in
  check Alcotest.string "same seed, same schedule" (fmt (gen 5)) (fmt (gen 5));
  check Alcotest.bool "different seed, different schedule" true
    (fmt (gen 5) <> fmt (gen 6));
  (* Targets stay in range and peer faults never target themselves. *)
  List.iter
    (fun (e : Fault.event) ->
      let p = Ids.Switch_id.to_int e.Fault.primary
      and s = Ids.Switch_id.to_int e.Fault.secondary in
      check Alcotest.bool "primary in range" true (p >= 0 && p < 8);
      check Alcotest.bool "secondary distinct" true (s >= 0 && s < 8 && s <> p))
    (gen 5)

let () =
  ignore (sid 0);
  Alcotest.run "chaos"
    [
      ( "reliable transport",
        [
          Alcotest.test_case "in order under loss" `Quick
            test_reliable_in_order_under_loss;
          Alcotest.test_case "dedups duplicates" `Quick
            test_reliable_dedups_duplicates;
          Alcotest.test_case "epoch reset" `Quick test_reliable_epoch_reset;
          Alcotest.test_case "give up and kick" `Quick
            test_reliable_give_up_and_kick;
          Alcotest.test_case "tail drop" `Quick test_reliable_tail_drop;
        ] );
      ( "channel",
        [ Alcotest.test_case "strict wiring" `Quick test_strict_channel_raises ] );
      ( "degradation",
        [
          Alcotest.test_case "buffer, reconnect, re-sync" `Quick
            test_degradation_and_reconnect;
        ] );
      ( "discriminating",
        [
          Alcotest.test_case "reliable heals migration under loss" `Quick
            test_reliable_heals_migration_loss;
          Alcotest.test_case "fire-and-forget stays stale" `Quick
            test_fire_and_forget_loses_migration;
        ] );
      ( "acceptance",
        [
          Alcotest.test_case "scenario generation deterministic" `Quick
            test_scenario_generation_deterministic;
          Alcotest.test_case "multi-fault chaos, twice, byte-identical" `Quick
            test_chaos_scenario_deterministic_and_convergent;
        ] );
    ]
