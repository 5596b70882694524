(* Seeded double-run determinism: the same scenario run twice with the
   same seed must leave byte-identical observable state — recorder time
   series, switch counters, controller counters and the final grouping.
   This is the end-to-end check behind the lazyctrl-lint D-rules: any
   hash-order, raw-randomness or wall-clock leak shows up here as a
   fingerprint mismatch. *)

open Lazyctrl_net
open Lazyctrl_sim
open Lazyctrl_topo
open Lazyctrl_core
open Lazyctrl_controller
module Prng = Lazyctrl_util.Prng
module Recorder = Lazyctrl_metrics.Recorder

(* A mid-size scenario: grouping, per-tenant traffic, a host migration, a
   failure + recovery, and periodic regroup triggers. *)
let run_scenario ~seed =
  let topo =
    Placement.generate ~rng:(Prng.create seed)
      {
        Placement.n_switches = 16;
        n_tenants = 8;
        tenant_size_min = 8;
        tenant_size_max = 16;
        racks_per_tenant = 2;
        stray_fraction = 0.1;
      }
  in
  let net =
    Network.create
      ~controller_config:
        { Controller.default_config with Controller.group_size_limit = 4 }
      ~mode:Network.Lazy ~topo ~horizon:(Time.of_min 30) ()
  in
  Network.bootstrap net ();
  Network.run net ~until:(Time.of_sec 20);
  (* Per-tenant all-to-first traffic. *)
  List.iter
    (fun tenant ->
      match Topology.tenant_hosts topo tenant with
      | first :: rest ->
          List.iter
            (fun (peer : Host.t) ->
              Network.start_flow net ~src:first.Host.id ~dst:peer.id
                ~bytes:20_000 ~packets:14)
            rest
      | [] -> ())
    (Topology.tenants topo);
  Network.run net ~until:(Time.of_min 2);
  (* Perturbations: migrate one host, knock a switch over, repair it. *)
  (match Topology.tenants topo with
  | tenant :: _ -> (
      match Topology.tenant_hosts topo tenant with
      | (h : Host.t) :: _ ->
          let dst = Ids.Switch_id.of_int 3 in
          Network.migrate_host net h.id ~to_:dst
      | [] -> ())
  | [] -> ());
  Network.fail_switch net (Ids.Switch_id.of_int 5);
  Network.run net ~until:(Time.of_min 6);
  (* More cross-tenant chatter after recovery. *)
  List.iter
    (fun tenant ->
      match Topology.tenant_hosts topo tenant with
      | a :: b :: _ ->
          Network.start_flow net ~src:a.Host.id ~dst:b.Host.id ~bytes:4_000
            ~packets:3
      | _ -> ())
    (Topology.tenants topo);
  Network.run net ~until:(Time.of_min 10);
  net

let fingerprint net =
  let buf = Buffer.create 4096 in
  let addf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let r = Network.recorder net in
  addf "requests=%d updates=%d\n" (Recorder.total_requests r)
    (Recorder.total_updates r);
  Array.iteri (fun i v -> addf "rps[%d]=%h\n" i v) (Recorder.workload_rps r);
  Array.iteri
    (fun i v -> addf "lat[%d]=%h\n" i v)
    (Recorder.first_latency_ms_series r);
  Array.iteri
    (fun i v -> addf "upd[%d]=%d\n" i v)
    (Recorder.updates_per_hour r);
  let s = Network.switch_stats_sum net in
  addf
    "sw: from_hosts=%d delivered=%d encap=%d ft=%d lfib=%d gfib=%d dup=%d \
     punt=%d fp=%d arp_l=%d arp_g=%d adv=%d ka=%d\n"
    s.Lazyctrl_switch.Edge_switch.packets_from_hosts s.packets_delivered
    s.encap_sent s.flow_table_handled s.lfib_handled s.gfib_handled
    s.gfib_duplicates s.punted s.fp_drops s.arp_local_answered
    s.arp_group_escalated s.adverts_sent s.keepalives_sent;
  (match Network.lazy_controller net with
  | None -> addf "no-controller\n"
  | Some c ->
      let cs = Controller.stats c in
      addf
        "ctrl: req=%d pin=%d arp=%d sr=%d ra=%d fm=%d po=%d relay=%d \
         flood=%d inc=%d full=%d fo=%d pre=%d\n"
        cs.Controller.requests cs.packet_ins cs.arp_escalations
        cs.state_reports cs.ring_alarms cs.flow_mods_sent cs.packet_outs_sent
        cs.arp_relays cs.floods cs.grouping_updates cs.full_regroups
        cs.failovers_handled cs.preloaded_rules;
      (match Controller.grouping c with
      | None -> addf "no-grouping\n"
      | Some g ->
          Array.iteri
            (fun sw gid -> addf "group[%d]=%d\n" sw gid)
            (Lazyctrl_grouping.Grouping.assignment g)));
  let hm = Network.host_model net in
  addf "flows_delivered=%d\n" (Host_model.flows_delivered hm);
  Buffer.contents buf

let test_double_run () =
  let fp1 = fingerprint (run_scenario ~seed:11) in
  let fp2 = fingerprint (run_scenario ~seed:11) in
  Alcotest.(check string) "same seed, byte-identical observables" fp1 fp2;
  (* And the fingerprint is not trivially empty. *)
  Alcotest.(check bool) "fingerprint non-empty" true (String.length fp1 > 200)

let test_seed_sensitivity () =
  (* A different seed produces a different placement, hence (almost
     surely) different observables; guards against a fingerprint that
     ignores the run. *)
  let fp1 = fingerprint (run_scenario ~seed:11) in
  let fp3 = fingerprint (run_scenario ~seed:12) in
  Alcotest.(check bool)
    "different seed, different fingerprint" false (String.equal fp1 fp3)

(* Same property under chaos: lossy channels, fault injection, reliable
   retransmission timers and invariant polling all derive from the one
   seed, so the runner's fingerprint must be byte-identical too. *)
let test_chaos_double_run () =
  let module Runner = Lazyctrl_chaos.Runner in
  let cfg = { Runner.default_config with Runner.seed = 7 } in
  let r1 = Runner.run cfg in
  let r2 = Runner.run cfg in
  Alcotest.(check string)
    "same seed, byte-identical chaos fingerprint" r1.Runner.fingerprint
    r2.Runner.fingerprint;
  Alcotest.(check bool)
    "chaos fingerprint non-empty" true
    (String.length r1.Runner.fingerprint > 200);
  let r3 = Runner.run { cfg with Runner.seed = 8 } in
  Alcotest.(check bool)
    "different seed, different chaos fingerprint" false
    (String.equal r1.Runner.fingerprint r3.Runner.fingerprint)

(* The same property over the controller cluster: member kills and
   partitions, mastership-term arbitration, coordination sessions and
   orphan adoption all replay byte-identically from the seed. *)
let test_cluster_chaos_double_run () =
  let module CR = Lazyctrl_chaos.Runner in
  let cfg = { CR.cluster_config with CR.seed = 7 } in
  let r1 = CR.run cfg in
  let r2 = CR.run cfg in
  Alcotest.(check string)
    "same seed, byte-identical cluster fingerprint" r1.CR.fingerprint
    r2.CR.fingerprint;
  Alcotest.(check bool)
    "cluster fingerprint non-empty" true
    (String.length r1.CR.fingerprint > 200);
  let r3 = CR.run { cfg with CR.seed = 8 } in
  Alcotest.(check bool)
    "different seed, different cluster fingerprint" false
    (String.equal r1.CR.fingerprint r3.CR.fingerprint)

(* Tracing determinism: two flight-recorded runs of the same seeded
   daylong slice must serialize to byte-identical JSONL (and Chrome)
   exports.  Trace files are diffable artifacts, so this is stricter
   than fingerprint equality: every event, span id and parent link has
   to come out in the same bytes, which would catch any hash-order or
   wall-clock leak in the tracer itself. *)
let test_traced_daylong_double_run () =
  let module Daylong = Lazyctrl_experiments.Daylong in
  let module Tracer = Lazyctrl_trace.Tracer in
  let module Export = Lazyctrl_trace.Export in
  let record () =
    let tracer = Tracer.create () in
    ignore (Daylong.run ~tracer ~seed:9 ~n_flows:2_000 Daylong.Lazy_real_dynamic);
    (Export.to_jsonl (Tracer.events tracer),
     Export.to_chrome (Tracer.events tracer))
  in
  let j1, c1 = record () in
  let j2, c2 = record () in
  Alcotest.(check bool) "non-trivial trace" true (String.length j1 > 10_000);
  Alcotest.(check int) "same JSONL length" (String.length j1) (String.length j2);
  Alcotest.(check bool) "byte-identical JSONL" true (String.equal j1 j2);
  Alcotest.(check bool) "byte-identical Chrome export" true (String.equal c1 c2)

let () =
  Alcotest.run "determinism"
    [
      ( "double-run",
        [
          Alcotest.test_case "same seed twice" `Slow test_double_run;
          Alcotest.test_case "seed sensitivity" `Slow test_seed_sensitivity;
          Alcotest.test_case "chaos scenario twice" `Slow test_chaos_double_run;
          Alcotest.test_case "cluster chaos twice" `Slow
            test_cluster_chaos_double_run;
          Alcotest.test_case "traced daylong slice twice" `Slow
            test_traced_daylong_double_run;
        ] );
    ]
