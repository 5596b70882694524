open Lazyctrl_net
open Lazyctrl_sim
open Lazyctrl_openflow
open Lazyctrl_switch
open Lazyctrl_controller
open Lazyctrl_core
module Prng = Lazyctrl_util.Prng
module Placement = Lazyctrl_topo.Placement
module Topology = Lazyctrl_topo.Topology
module Sid = Ids.Switch_id
module Tracer = Lazyctrl_trace.Tracer
module Tev = Lazyctrl_trace.Event
module Member = Lazyctrl_cluster.Member

type config = {
  seed : int;
  controllers : int;
  n_switches : int;
  n_tenants : int;
  loss : float;           (* baseline per-message loss on every channel *)
  dup : float;
  reliable : bool;
  spec : Scenario.spec;
  migrations : int;
  flows_per_tenant : int;
  group_size_limit : int;
  warmup : Time.t;
  settle : Time.t;
  poll : Time.t;
}

let default_config =
  {
    seed = 42;
    controllers = 1;
    n_switches = 12;
    n_tenants = 6;
    loss = 0.05;
    dup = 0.01;
    reliable = true;
    spec = Scenario.default;
    migrations = 4;
    flows_per_tenant = 2;
    group_size_limit = 6;
    warmup = Time.of_sec 20;
    settle = Time.of_min 2;
    poll = Time.of_sec 2;
  }

(* Small groups so each of the three members owns several, giving kills
   and handoffs something to move. *)
let cluster_config =
  {
    default_config with
    controllers = 3;
    n_switches = 16;
    loss = 0.0;
    dup = 0.0;
    spec =
      {
        Scenario.default with
        Scenario.kinds = Fault.cluster_kinds;
        n_faults = 4;
        window = Time.of_sec 40;
        min_duration = Time.of_sec 8;
        max_duration = Time.of_sec 15;
      };
    migrations = 0;
    flows_per_tenant = 3;
    group_size_limit = 4;
    warmup = Time.of_sec 30;
    settle = Time.of_min 3;
  }

(* Tight timers so detection, re-sync and re-homing happen within
   simulated seconds. *)
let controller_config cfg =
  {
    Controller.default_config with
    Controller.group_size_limit = cfg.group_size_limit;
    sync_period = Time.of_sec 10;
    keepalive_period = Time.of_sec 2;
    echo_period = Time.of_sec 5;
    echo_timeout = Time.of_sec 12;
    daemon_period = Time.of_sec 5;
    incremental_updates = false;
    reliable_state = cfg.reliable;
  }

type result = {
  events : Fault.event list;
  reports : Invariant.report list;
  converged_after : Time.t option;
  link : Network.link_totals;
  ctrl_bytes : int;
  reliability : Reliable.stats;
  switch_stats : Edge_switch.stats;
  controller_stats : Controller.stats list;
  member_stats : Member.stats;
  flows_started : int;
  flows_delivered : int;
  resolutions_failed : int;
  involvement : float;
  fingerprint : string;
}

let delivery_ratio (l : Network.link_totals) =
  if l.Network.links_sent = 0 then 1.0
  else float_of_int l.Network.links_delivered /. float_of_int l.Network.links_sent

let fingerprint_of r ~at =
  let b = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  List.iter (fun e -> add "event %s\n" (Format.asprintf "%a" Fault.pp_event e)) r.events;
  List.iter
    (fun r -> add "invariant %s\n" (Format.asprintf "%a" Invariant.pp_report r))
    r.reports;
  (match r.converged_after with
  | Some t -> add "converged_after %d\n" (Time.to_ns t)
  | None -> add "converged_after none\n");
  let link = r.link in
  add "link sent=%d delivered=%d dropped=%d lost=%d duplicated=%d\n"
    link.Network.links_sent link.Network.links_delivered link.Network.links_dropped
    link.Network.links_lost link.Network.links_duplicated;
  let s = r.reliability in
  add
    "reliable data=%d retrans=%d acks=%d delivered=%d dups=%d stale=%d tail=%d \
     give_ups=%d violations=%d\n"
    s.Reliable.data_sent s.Reliable.retransmits s.Reliable.acks_sent
    s.Reliable.delivered s.Reliable.dups_ignored s.Reliable.stale_dropped
    s.Reliable.tail_dropped s.Reliable.give_ups s.Reliable.violations;
  let s = r.switch_stats in
  add
    "switch from_hosts=%d delivered=%d encap=%d ft=%d lfib=%d gfib=%d gdup=%d \
     punted=%d fp=%d arp_l=%d arp_g=%d adverts=%d ka=%d miss_buf=%d miss_rep=%d\n"
    s.Edge_switch.packets_from_hosts s.Edge_switch.packets_delivered
    s.Edge_switch.encap_sent s.Edge_switch.flow_table_handled
    s.Edge_switch.lfib_handled s.Edge_switch.gfib_handled
    s.Edge_switch.gfib_duplicates s.Edge_switch.punted s.Edge_switch.fp_drops
    s.Edge_switch.arp_local_answered s.Edge_switch.arp_group_escalated
    s.Edge_switch.adverts_sent s.Edge_switch.keepalives_sent
    s.Edge_switch.misses_buffered s.Edge_switch.misses_replayed;
  List.iter
    (fun (c : Controller.stats) ->
      add
        "controller requests=%d packet_ins=%d arp_esc=%d reports=%d alarms=%d \
         fmods=%d pouts=%d relays=%d floods=%d updates=%d regroups=%d \
         failovers=%d preloads=%d\n"
        c.Controller.requests c.Controller.packet_ins c.Controller.arp_escalations
        c.Controller.state_reports c.Controller.ring_alarms
        c.Controller.flow_mods_sent c.Controller.packet_outs_sent
        c.Controller.arp_relays c.Controller.floods c.Controller.grouping_updates
        c.Controller.full_regroups c.Controller.failovers_handled
        c.Controller.preloaded_rules)
    r.controller_stats;
  if List.length r.controller_stats > 1 then begin
    let m = r.member_stats in
    add
      "member hellos=%d rehomes=%d adoptions=%d releases=%d handoffs=%d \
       deaths=%d revivals=%d ctrl_failures=%d\n"
      m.Member.hellos_sent m.Member.rehomes_sent m.Member.adoptions
      m.Member.releases m.Member.handoffs_offered m.Member.peer_deaths
      m.Member.peer_revivals m.Member.controller_failure_verdicts
  end;
  add "flows started=%d delivered=%d unresolved=%d\n" r.flows_started
    r.flows_delivered r.resolutions_failed;
  add "clock %d\n" (Time.to_ns at);
  Buffer.contents b

let placement_spec cfg =
  {
    Placement.n_switches = cfg.n_switches;
    n_tenants = cfg.n_tenants;
    tenant_size_min = 8;
    tenant_size_max = 16;
    racks_per_tenant = 3;
    stray_fraction = 0.05;
  }

let run ?(tracer = Tracer.disabled) cfg =
  let rng = Prng.create cfg.seed in
  let topo = Placement.generate ~rng:(Prng.named rng "topo") (placement_spec cfg) in
  let baseline =
    if cfg.loss > 0.0 || cfg.dup > 0.0 then
      Some (Channel.uniform_loss ~dup:cfg.dup cfg.loss)
    else None
  in
  let params =
    {
      (Params.with_seed cfg.seed Params.default) with
      Params.control_loss = baseline;
      peer_loss = baseline;
      switch_config =
        {
          Edge_switch.default_config with
          Edge_switch.reliable_state = cfg.reliable;
        };
    }
  in
  let net =
    Network.create ~params ~controller_config:(controller_config cfg) ~tracer
      ~controllers:cfg.controllers ~mode:Network.Lazy ~topo
      ~horizon:(Time.of_hour 2) ()
  in
  let engine = Network.engine net in
  Network.bootstrap net ();
  Network.run net ~until:cfg.warmup;
  (* Tenant flows at seeded offsets across the fault window, so faults
     land while traffic is resolving and punting. *)
  let flow_rng = Prng.named rng "flows" in
  let window_ms = Time.to_ns cfg.spec.Scenario.window / 1_000_000 in
  List.iter
    (fun tid ->
      let hosts = Array.of_list (Topology.tenant_hosts topo tid) in
      if Array.length hosts >= 2 then
        for _ = 1 to cfg.flows_per_tenant do
          let a = Prng.choose flow_rng hosts and b = Prng.choose flow_rng hosts in
          let after = Time.of_ms (Prng.int flow_rng (max 1 window_ms)) in
          if not (Ids.Host_id.equal a.Host.id b.Host.id) then
            ignore
              (Engine.schedule engine ~after (fun () ->
                   Network.start_flow net ~src:a.Host.id ~dst:b.Host.id
                     ~bytes:20_000 ~packets:10))
        done)
    (Topology.tenants topo);
  (* Seeded VM migrations interleaved with the fault window, driving the
     state-dissemination path while it is under attack. *)
  let mig_rng = Prng.named rng "migrations" in
  let all_hosts = Array.of_list (Topology.hosts topo) in
  for _ = 1 to cfg.migrations do
    let h = Prng.choose mig_rng all_hosts in
    let dst = Sid.of_int (Prng.int mig_rng cfg.n_switches) in
    let after = Time.of_ms (Prng.int mig_rng (max 1 window_ms)) in
    ignore
      (Engine.schedule engine ~after (fun () ->
           if not (Sid.equal (Topology.location topo h.Host.id) dst) then
             Network.migrate_host net h.Host.id ~to_:dst))
  done;
  let events =
    Scenario.generate
      ~rng:(Prng.named rng "faults")
      ~n_switches:cfg.n_switches cfg.spec
  in
  Scenario.inject net cfg.spec ~baseline:(baseline, baseline) events;
  (* Mirror every fault's onset and repair into the flight recorder, at
     the same engine times the scenario injector uses (offsets from the
     injection instant). *)
  if Tracer.enabled tracer then begin
    let emit_fault e phase =
      Tracer.emit tracer ~now:(Engine.now engine)
        ~switch:(Sid.to_int e.Fault.primary)
        (Tev.Chaos_fault { fault = Fault.kind_label e.Fault.kind; phase })
    in
    List.iter
      (fun e ->
        ignore
          (Engine.schedule engine ~after:e.Fault.at (fun () ->
               emit_fault e "onset"));
        ignore
          (Engine.schedule engine ~after:(Fault.repair_at e) (fun () ->
               emit_fault e "repair")))
      events
  end;
  (* Settle only after both the last repair and the flow window have
     passed — a fault-free scenario must still see its traffic. *)
  let repair_done =
    Time.add (Engine.now engine)
      (Time.max (Scenario.last_repair events) cfg.spec.Scenario.window)
  in
  Network.run net ~until:(Time.add repair_done (Time.of_ms 1));
  let deadline = Time.add repair_done cfg.settle in
  let rec settle () =
    let reports = Invariant.check_all net in
    if Invariant.all_ok reports then
      (reports, Some (Time.diff (Engine.now engine) repair_done))
    else if Time.(Engine.now engine >= deadline) then (reports, None)
    else begin
      Network.run net ~until:(Time.add (Engine.now engine) cfg.poll);
      settle ()
    end
  in
  let reports, converged_after = settle () in
  let switch_stats = Network.switch_stats_sum net in
  let s = switch_stats in
  let datapath =
    s.Edge_switch.flow_table_handled + s.Edge_switch.lfib_handled
    + s.Edge_switch.gfib_handled + s.Edge_switch.punted
  in
  let hosts = Network.host_model net in
  let r =
    {
      events;
      reports;
      converged_after;
      link = Network.link_stats net;
      ctrl_bytes = Network.ctrl_bytes_sent net;
      reliability = Network.reliability_stats net;
      switch_stats;
      controller_stats =
        List.init (Network.controllers net) (fun k ->
            Controller.stats (Network.controller net k));
      member_stats = Network.member_stats_sum net;
      flows_started = Host_model.flows_started hosts;
      flows_delivered = Host_model.flows_delivered hosts;
      resolutions_failed = Host_model.resolutions_failed hosts;
      involvement =
        float_of_int s.Edge_switch.punted /. float_of_int (max 1 datapath);
      fingerprint = "";
    }
  in
  { r with fingerprint = fingerprint_of r ~at:(Engine.now engine) }
