(* Tests for lazyctrl.trace: the flight recorder, laziness accounting,
   and the JSONL / Chrome trace_event exporters.

   The end-to-end cases are the tentpole cross-checks: on a traced run
   the tracer's cumulative [Ctrl_request] count must equal the metrics
   recorder's Fig. 7 request total, and the per-flow laziness verdicts
   must partition the flows the run actually saw. *)

open Lazyctrl_sim
open Lazyctrl_trace
module Prng = Lazyctrl_util.Prng
module Recorder = Lazyctrl_metrics.Recorder

let check = Alcotest.check

(* --- tracer mechanics ------------------------------------------------------- *)

let test_disabled_is_inert () =
  let t = Tracer.disabled in
  check Alcotest.bool "disabled" false (Tracer.enabled t);
  Tracer.emit t ~now:Time.zero ~flow:1 Event.Ingress;
  check Alcotest.int "nothing recorded" 0 (Tracer.recorded t);
  check (Alcotest.list Alcotest.reject) "no events" [] (Tracer.events t)

let test_sampling_by_flow_id () =
  let t = Tracer.create ~sample_every:2 () in
  Tracer.emit t ~now:Time.zero ~flow:3 Event.Ingress;
  Tracer.emit t ~now:Time.zero ~flow:4 Event.Ingress;
  Tracer.emit t ~now:Time.zero Event.Ctrl_flood;
  check Alcotest.bool "odd flow sampled out" false (Tracer.sampled t 3);
  check Alcotest.bool "even flow kept" true (Tracer.sampled t 4);
  check Alcotest.int "odd flow dropped, flow-less kept" 2 (Tracer.recorded t);
  let flows = List.filter_map (fun (e : Event.t) -> e.Event.flow) (Tracer.events t) in
  check (Alcotest.list Alcotest.int) "only the even flow" [ 4 ] flows

let test_ring_eviction_keeps_counters () =
  let t = Tracer.create ~capacity:4 () in
  for i = 1 to 6 do
    Tracer.emit t ~now:(Time.of_ns i) ~flow:7 Event.Lfib_hit
  done;
  check Alcotest.int "cumulative count" 6 (Tracer.recorded t);
  check Alcotest.int "two evicted" 2 (Tracer.dropped t);
  let evs = Tracer.events t in
  check Alcotest.int "ring holds capacity" 4 (List.length evs);
  (* Oldest-first and contiguous: the surviving events are seq 2..5. *)
  check
    (Alcotest.list Alcotest.int)
    "oldest first" [ 2; 3; 4; 5 ]
    (List.map (fun (e : Event.t) -> e.Event.seq) evs);
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "counters survive eviction"
    [ ("lfib_hit", 6) ]
    (Tracer.counts t)

let test_seq_monotone_and_parent_chain () =
  let t = Tracer.create () in
  Tracer.emit t ~now:(Time.of_us 1) ~flow:9 Event.Ingress;
  Tracer.emit t ~now:(Time.of_us 2) ~flow:9 (Event.Gfib_probe 2);
  Tracer.emit t ~now:(Time.of_us 2) ~flow:11 Event.Ingress;
  Tracer.emit t ~now:(Time.of_us 3) ~flow:9 Event.Deliver;
  let evs = Array.of_list (Tracer.events t) in
  check Alcotest.int "four events" 4 (Array.length evs);
  Array.iteri (fun i (e : Event.t) -> check Alcotest.int "seq" i e.Event.seq) evs;
  check Alcotest.bool "first has no parent" true
    (Option.is_none evs.(0).Event.parent);
  check Alcotest.bool "other flow has no parent" true
    (Option.is_none evs.(2).Event.parent);
  (* Flow 9's chain links each event to the previous one on the flow. *)
  check Alcotest.bool "probe points at ingress" true
    (match evs.(1).Event.parent with
    | Some p -> Event.span_equal p (Event.span_of evs.(0))
    | None -> false);
  check Alcotest.bool "deliver points at probe" true
    (match evs.(3).Event.parent with
    | Some p -> Event.span_equal p (Event.span_of evs.(1))
    | None -> false);
  (* Emission order is the (time, seq) span order — ties on time (events
     1 and 2 share 2us) break on the sequence number. *)
  for i = 0 to Array.length evs - 2 do
    check Alcotest.bool "compare orders by (time, seq)" true
      (Event.compare evs.(i) evs.(i + 1) < 0);
    check Alcotest.bool "span_compare agrees" true
      (Event.span_compare (Event.span_of evs.(i)) (Event.span_of evs.(i + 1))
      < 0)
  done

(* --- laziness accounting ----------------------------------------------------- *)

(* A synthetic trace: flow 1 purely local, flow 2 gossip (Bloom probe and
   a false positive), flow 3 punted to the controller. *)
let synthetic_tracer () =
  let t = Tracer.create () in
  let e us = Time.of_us us in
  Tracer.emit t ~now:(e 1) ~flow:1 ~switch:0 Event.Ingress;
  Tracer.emit t ~now:(e 2) ~flow:1 ~switch:0 Event.Lfib_hit;
  Tracer.emit t ~now:(e 3) ~flow:1 ~switch:0 Event.Deliver;
  Tracer.emit t ~now:(e 4) ~flow:2 ~switch:1 Event.Ingress;
  Tracer.emit t ~now:(e 5) ~flow:2 ~switch:1 (Event.Gfib_probe 2);
  Tracer.emit t ~now:(e 6) ~flow:2 ~switch:2 Event.Bloom_fp;
  Tracer.emit t ~now:(e 7) ~flow:2 ~switch:3 Event.Deliver;
  Tracer.emit t ~now:(e 8) ~flow:3 ~switch:1 Event.Ingress;
  Tracer.emit t ~now:(e 9) ~flow:3 ~switch:1 (Event.Punt "no_match");
  Tracer.emit t ~now:(e 10) (Event.Ctrl_request "packet_in");
  Tracer.emit t ~now:(e 11) ~flow:3 Event.Ctrl_packet_in;
  Tracer.emit t ~now:(e 12) ~flow:3 (Event.Ctrl_install 4);
  Tracer.emit t ~now:(e 13) ~flow:3 ~switch:4 Event.Deliver;
  t

let verdict = Alcotest.of_pp (fun ppf v ->
    Format.pp_print_string ppf (Laziness.verdict_label v))

let test_laziness_verdicts () =
  let t = synthetic_tracer () in
  let s = Tracer.summary t in
  check Alcotest.int "three flows" 3 s.Laziness.flows;
  check Alcotest.int "one local" 1 s.Laziness.local;
  check Alcotest.int "one gossip" 1 s.Laziness.gossip;
  check Alcotest.int "one controller" 1 s.Laziness.controller;
  check Alcotest.int "one controller request" 1 s.Laziness.controller_requests;
  check
    (Alcotest.list (Alcotest.pair Alcotest.int verdict))
    "per-flow verdicts"
    [ (1, Laziness.Local); (2, Laziness.Gossip); (3, Laziness.Controller) ]
    s.Laziness.per_flow;
  check (Alcotest.float 1e-9) "involvement ratio" (1.0 /. 3.0)
    (Laziness.controller_ratio s);
  (* The offline fold over the buffered events agrees with the live
     cumulative accounting (no eviction happened). *)
  (* The rank encoding is the lattice order and round-trips. *)
  check Alcotest.bool "rank is monotone" true
    (Laziness.rank Laziness.Local < Laziness.rank Laziness.Gossip
    && Laziness.rank Laziness.Gossip < Laziness.rank Laziness.Controller);
  List.iter
    (fun v ->
      check verdict "verdict_of_rank inverts rank" v
        (Laziness.verdict_of_rank (Laziness.rank v)))
    [ Laziness.Local; Laziness.Gossip; Laziness.Controller ];
  let offline = Laziness.of_events (Tracer.events t) in
  check Alcotest.int "offline flows" s.Laziness.flows offline.Laziness.flows;
  check
    (Alcotest.list (Alcotest.pair Alcotest.int verdict))
    "offline per-flow" s.Laziness.per_flow offline.Laziness.per_flow

(* --- exporters --------------------------------------------------------------- *)

(* One event of every kind, exercising every payload field. *)
let all_kinds_events () =
  let t = Tracer.create () in
  let kinds =
    [
      Event.Ingress;
      Event.Flow_table_hit;
      Event.Lfib_hit;
      Event.Gfib_probe 3;
      Event.Bloom_fp;
      Event.Punt "no_match";
      Event.Deliver;
      Event.Arp_local;
      Event.Arp_group;
      Event.Arp_escalate;
      Event.Designated_relay "advert";
      Event.Ctrl_request "packet_in";
      Event.Ctrl_packet_in;
      Event.Ctrl_install 5;
      Event.Ctrl_arp_relay;
      Event.Ctrl_flood;
      Event.Regroup { Event.full = true; groups = 4 };
      Event.Chaos_fault { Event.fault = "switch_off"; phase = "onset" };
      Event.Failover "switch_failure";
      Event.Retransmit "ctrl->sw3";
      Event.Reliable_giveup "sw3->ctrl";
    ]
  in
  check Alcotest.int "covers every tag" Event.n_tags (List.length kinds);
  List.iteri
    (fun i k ->
      Tracer.emit t
        ~now:(Time.of_us (i + 1))
        ~flow:(if i mod 2 = 0 then i else i + 1000)
        ~switch:(i mod 5) k)
    kinds;
  Tracer.emit t ~now:(Time.of_ms 1) Event.Ctrl_flood;
  Tracer.events t

let event = Alcotest.testable Event.pp Event.equal

let test_jsonl_round_trip () =
  let evs = all_kinds_events () in
  let data = Export.to_jsonl evs in
  (match Export.of_jsonl data with
  | Ok decoded -> check (Alcotest.list event) "round trip" evs decoded
  | Error e -> Alcotest.failf "of_jsonl: %s" e);
  (* Rendering is deterministic byte-for-byte. *)
  check Alcotest.string "stable rendering" data (Export.to_jsonl evs);
  (* Each line is exactly the compact Json rendering of the event. *)
  let compact j =
    let buf = Buffer.create 128 in
    Lazyctrl_util.Json.to_buffer buf j;
    Buffer.contents buf
  in
  check Alcotest.string "line is compact Json"
    (compact (Event.to_json (List.hd evs)))
    (List.hd (String.split_on_char '\n' data))

let test_chrome_round_trip () =
  let evs = all_kinds_events () in
  let data = Export.to_chrome evs in
  (match Export.of_chrome data with
  | Ok decoded -> check (Alcotest.list event) "round trip" evs decoded
  | Error e -> Alcotest.failf "of_chrome: %s" e);
  check Alcotest.bool "has traceEvents array" true
    (String.length data > 20
    && String.equal (String.sub data 0 16) "{\"traceEvents\":[")

let test_jsonl_rejects_garbage () =
  let contains_line s =
    (* cheap substring check: the error must name the offending line *)
    let n = String.length s in
    let rec go i = i + 4 <= n && (String.equal (String.sub s i 4) "line" || go (i + 1)) in
    go 0
  in
  (match Export.of_jsonl "{\"ts\":1}\nnot json\n" with
  | Ok _ -> Alcotest.fail "expected an error"
  | Error e -> check Alcotest.bool "error names the line" true (contains_line e));
  match Export.of_chrome "[1,2,3]" with
  | Ok _ -> Alcotest.fail "expected an error"
  | Error _ -> ()

(* --- end-to-end: traced network runs ----------------------------------------- *)

let traced_network ~seed ~tracer =
  let module Placement = Lazyctrl_topo.Placement in
  let module Topology = Lazyctrl_topo.Topology in
  let module Network = Lazyctrl_core.Network in
  let module Host = Lazyctrl_net.Host in
  let topo =
    Placement.generate ~rng:(Prng.create seed)
      {
        Placement.n_switches = 8;
        n_tenants = 4;
        tenant_size_min = 6;
        tenant_size_max = 10;
        racks_per_tenant = 2;
        stray_fraction = 0.1;
      }
  in
  let net =
    Network.create ~tracer ~mode:Network.Lazy ~topo ~horizon:(Time.of_min 10) ()
  in
  Network.bootstrap net ();
  Network.run net ~until:(Time.of_sec 10);
  List.iter
    (fun tenant ->
      match Topology.tenant_hosts topo tenant with
      | first :: rest ->
          List.iter
            (fun (peer : Host.t) ->
              Network.start_flow net ~src:first.Host.id ~dst:peer.id
                ~bytes:20_000 ~packets:6)
            rest
      | [] -> ())
    (Topology.tenants topo);
  Network.run net ~until:(Time.of_min 5);
  net

let test_fig7_cross_check () =
  let tracer = Tracer.create () in
  let net = traced_network ~seed:3 ~tracer in
  let recorder = Lazyctrl_core.Network.recorder net in
  check Alcotest.bool "run produced requests" true
    (Recorder.total_requests recorder > 0);
  (* Every controller request charged to the Fig. 7 workload series is
     also a Ctrl_request trace event, and vice versa. *)
  check Alcotest.int "tracer requests == recorder requests"
    (Recorder.total_requests recorder)
    (Tracer.controller_requests tracer);
  let s = Tracer.summary tracer in
  check Alcotest.int "summary exposes the same count"
    (Recorder.total_requests recorder)
    s.Laziness.controller_requests;
  (* The verdicts partition the flows. *)
  check Alcotest.bool "saw flows" true (s.Laziness.flows > 0);
  check Alcotest.int "verdicts partition flows" s.Laziness.flows
    (s.Laziness.local + s.Laziness.gossip + s.Laziness.controller);
  check Alcotest.int "per-flow list is the partition" s.Laziness.flows
    (List.length s.Laziness.per_flow);
  (* With no eviction, the offline fold of the buffered events agrees
     with the live accounting. *)
  check Alcotest.int "no eviction" 0 (Tracer.dropped tracer);
  let offline = Laziness.of_events (Tracer.events tracer) in
  check Alcotest.int "offline controller verdicts agree"
    s.Laziness.controller offline.Laziness.controller;
  check Alcotest.int "offline request count agrees"
    s.Laziness.controller_requests offline.Laziness.controller_requests

let test_daylong_slice_cross_check () =
  let module Daylong = Lazyctrl_experiments.Daylong in
  let tracer = Tracer.create () in
  let r = Daylong.run ~tracer ~seed:42 ~n_flows:2_000 Daylong.Lazy_real_dynamic in
  check Alcotest.int "daylong: tracer requests == Fig. 7 recorder total"
    (Recorder.total_requests r.Daylong.recorder)
    (Tracer.controller_requests tracer);
  let s = Tracer.summary tracer in
  check Alcotest.int "daylong: verdicts partition the flows"
    s.Laziness.flows
    (s.Laziness.local + s.Laziness.gossip + s.Laziness.controller);
  (* The whole point of LazyCtrl: most flows stay off the controller. *)
  check Alcotest.bool "most flows lazy" true
    (Laziness.controller_ratio s < 0.5)

let test_traced_run_matches_untraced () =
  (* Tracing must observe, not perturb: the recorder totals of a traced
     run equal those of an untraced run with the same seed. *)
  let module Network = Lazyctrl_core.Network in
  let traced = traced_network ~seed:5 ~tracer:(Tracer.create ()) in
  let plain = traced_network ~seed:5 ~tracer:Tracer.disabled in
  check Alcotest.int "same request totals"
    (Recorder.total_requests (Network.recorder plain))
    (Recorder.total_requests (Network.recorder traced));
  let sp = Network.switch_stats_sum plain
  and st = Network.switch_stats_sum traced in
  check Alcotest.int "same packets delivered"
    sp.Lazyctrl_switch.Edge_switch.packets_delivered
    st.Lazyctrl_switch.Edge_switch.packets_delivered

let () =
  Alcotest.run "trace"
    [
      ( "tracer",
        [
          Alcotest.test_case "disabled is inert" `Quick test_disabled_is_inert;
          Alcotest.test_case "sampling by flow id" `Quick
            test_sampling_by_flow_id;
          Alcotest.test_case "ring eviction keeps counters" `Quick
            test_ring_eviction_keeps_counters;
          Alcotest.test_case "seq and parent chain" `Quick
            test_seq_monotone_and_parent_chain;
        ] );
      ( "laziness",
        [ Alcotest.test_case "verdict lattice" `Quick test_laziness_verdicts ] );
      ( "export",
        [
          Alcotest.test_case "jsonl round trip" `Quick test_jsonl_round_trip;
          Alcotest.test_case "chrome round trip" `Quick test_chrome_round_trip;
          Alcotest.test_case "rejects garbage" `Quick test_jsonl_rejects_garbage;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "fig7 cross-check (small net)" `Quick
            test_fig7_cross_check;
          Alcotest.test_case "fig7 cross-check (daylong slice)" `Slow
            test_daylong_slice_cross_check;
          Alcotest.test_case "tracing does not perturb" `Slow
            test_traced_run_matches_untraced;
        ] );
    ]
