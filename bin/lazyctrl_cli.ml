(* lazyctrl — command-line driver for the LazyCtrl reproduction.

   Subcommands:
     simulate    run a day-long (or shorter) whole-network simulation
     group       compute a switch grouping for a generated workload
     workload    generate a traffic trace and print its characteristics
     trace       flight recorder: record a traced run, summarize or
                 query a trace file (JSONL / Chrome trace_event)
     experiment  run one of the paper's tables/figures (same targets as
                 bench/main.exe)
     shard-check verify the domain-parallel sharded engine produces
                 byte-identical fingerprints across runs and domain
                 counts (the CI multicore matrix gate)
     chaos       run a seeded multi-fault chaos scenario with lossy
                 channels and report the convergence invariants
*)

open Cmdliner
open Lazyctrl_sim
open Lazyctrl_topo
open Lazyctrl_traffic
open Lazyctrl_core
open Lazyctrl_controller
open Lazyctrl_metrics
module Prng = Lazyctrl_util.Prng
module Table = Lazyctrl_util.Table
module E = Lazyctrl_experiments

(* --- shared args ------------------------------------------------------------ *)

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let switches_arg =
  Arg.(
    value & opt int 68
    & info [ "switches" ] ~docv:"N" ~doc:"Number of edge switches.")

let tenants_arg =
  Arg.(value & opt int 30 & info [ "tenants" ] ~docv:"N" ~doc:"Number of tenants.")

let flows_arg =
  Arg.(
    value & opt int 50_000
    & info [ "flows" ] ~docv:"N" ~doc:"Number of flows to generate/replay.")

let hours_arg =
  Arg.(
    value & opt int 24
    & info [ "hours" ] ~docv:"H" ~doc:"Simulated duration in hours (1-24).")

let limit_arg =
  Arg.(
    value & opt int 24
    & info [ "group-size-limit" ] ~docv:"L" ~doc:"Group size limit for SGI.")

let make_spec ~switches ~tenants =
  {
    Placement.n_switches = switches;
    n_tenants = tenants;
    tenant_size_min = 20;
    tenant_size_max = 100;
    racks_per_tenant = 4;
    stray_fraction = 0.05;
  }

let build_workload ~seed ~switches ~tenants ~flows ~hours =
  let topo =
    Placement.generate ~rng:(Prng.create seed) (make_spec ~switches ~tenants)
  in
  let hours = max 1 (min 24 hours) in
  let trace =
    Gen.real_like
      ~rng:(Prng.create (seed + 1))
      ~topo ~n_flows:flows
      ~duration:(Time.of_hour hours)
      ()
  in
  (topo, trace, Time.of_hour hours)

(* --- simulate ----------------------------------------------------------------- *)

let simulate mode_str seed switches tenants flows hours limit =
  let topo, trace, horizon =
    build_workload ~seed ~switches ~tenants ~flows ~hours
  in
  let mode =
    match mode_str with "openflow" -> Network.Openflow | _ -> Network.Lazy
  in
  Printf.printf "simulating %s: %d switches, %d hosts, %d flows over %d h\n%!"
    (match mode with Network.Lazy -> "LazyCtrl" | Network.Openflow -> "standard OpenFlow")
    (Topology.n_switches topo) (Topology.n_hosts topo) (Trace.n_flows trace)
    hours;
  let net =
    Network.create
      ~controller_config:
        { Controller.default_config with Controller.group_size_limit = limit }
      ~mode ~topo ~horizon ()
  in
  (match mode with
  | Network.Lazy ->
      let first_hour =
        Analysis.switch_intensity ~until:(Time.of_hour 1) ~topo trace
      in
      Network.bootstrap net ~intensity:first_hour ()
  | Network.Openflow -> ());
  Network.replay net trace;
  Network.run net ~until:horizon;
  let recorder = Network.recorder net in
  let hm = Network.host_model net in
  Printf.printf "flows delivered: %d / %d\n" (Host_model.flows_delivered hm)
    (Host_model.flows_started hm);
  Printf.printf "controller requests: %d (%.3f/s avg)\n"
    (Recorder.total_requests recorder)
    (Float.of_int (Recorder.total_requests recorder)
    /. Time.to_float_sec horizon);
  Printf.printf "control channel: %d bytes (%.1f B/s avg)\n"
    (Network.ctrl_bytes_sent net)
    (Float.of_int (Recorder.total_ctrl_bytes recorder)
    /. Time.to_float_sec horizon);
  (match Network.lazy_controller net with
  | Some c ->
      let s = Controller.stats c in
      Printf.printf
        "  packet-ins %d | ARP escalations %d | state reports %d | grouping updates %d\n"
        s.Controller.packet_ins s.Controller.arp_escalations
        s.Controller.state_reports s.Controller.grouping_updates
  | None -> ());
  let sw = Network.switch_stats_sum net in
  (match mode with
  | Network.Lazy ->
      Printf.printf
        "data plane: L-FIB %d | G-FIB %d | duplicates %d | FP drops %d\n"
        sw.Lazyctrl_switch.Edge_switch.lfib_handled
        sw.Lazyctrl_switch.Edge_switch.gfib_handled
        sw.Lazyctrl_switch.Edge_switch.gfib_duplicates
        sw.Lazyctrl_switch.Edge_switch.fp_drops
  | Network.Openflow -> ());
  let tbl =
    Table.create
      [ "hour bucket"; "workload (req/s)"; "ctrl (bytes/s)"; "avg latency (ms)" ]
  in
  let rates = Recorder.workload_rps recorder in
  let byte_rates = Recorder.ctrl_bytes_per_sec recorder in
  let lats = Recorder.latency_ms_series recorder in
  Array.iteri
    (fun i r ->
      Table.add_row tbl
        [
          Recorder.bucket_label recorder i;
          Table.cell_float ~decimals:3 r;
          Table.cell_float ~decimals:1 byte_rates.(i);
          Table.cell_float ~decimals:3 lats.(i);
        ])
    rates;
  Table.print tbl

let simulate_cmd =
  let mode =
    Arg.(
      value
      & opt (enum [ ("lazy", "lazy"); ("openflow", "openflow") ]) "lazy"
      & info [ "mode" ] ~docv:"MODE" ~doc:"Control plane: lazy or openflow.")
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run a whole-network simulation.")
    Term.(
      const simulate $ mode $ seed_arg $ switches_arg $ tenants_arg $ flows_arg
      $ hours_arg $ limit_arg)

(* --- group --------------------------------------------------------------------- *)

let group seed switches tenants flows limit =
  let topo, trace, _ = build_workload ~seed ~switches ~tenants ~flows ~hours:24 in
  let intensity = Analysis.switch_intensity ~topo trace in
  let t0 = Sys.time () in
  let grouping =
    Lazyctrl_grouping.Sgi.ini_group ~rng:(Prng.create seed) ~limit intensity
  in
  let dt = Sys.time () -. t0 in
  Printf.printf
    "grouped %d switches into %d LCGs (max size %d) in %.3f s\n"
    (Topology.n_switches topo)
    (Lazyctrl_grouping.Grouping.n_groups grouping)
    (Lazyctrl_grouping.Grouping.max_group_size grouping)
    dt;
  Printf.printf "normalized inter-group traffic intensity: %.2f%%\n"
    (100.0 *. Lazyctrl_grouping.Grouping.normalized_inter intensity grouping);
  let sizes = Lazyctrl_grouping.Grouping.sizes grouping in
  Printf.printf "group sizes: %s\n"
    (String.concat ", " (Array.to_list (Array.map string_of_int sizes)))

let group_cmd =
  Cmd.v
    (Cmd.info "group" ~doc:"Run SGI's initial grouping on a generated workload.")
    Term.(const group $ seed_arg $ switches_arg $ tenants_arg $ flows_arg $ limit_arg)

(* --- workload ------------------------------------------------------------------- *)

(* Price every flow's first-packet punt with the real codec (DESIGN.md
   §13): a reactive control plane pays Packet_in + Flow_mod + a reply
   per new flow. Compares the unbuffered punt (full packet both ways)
   against the buffered one (truncated Packet_in + Buffer_out). *)
let punt_cost_estimate topo trace =
  let module Wire = Lazyctrl_wire.Wire in
  let module Message = Lazyctrl_openflow.Message in
  let module Packet = Lazyctrl_net.Packet in
  let frame m = Wire.frame_size Wire.unit_ext m in
  let full = ref 0 and buffered = ref 0 in
  Trace.iter trace (fun f ->
      let src = Topology.host topo f.Trace.src in
      let dst = Topology.host topo f.Trace.dst in
      let pkt =
        Packet.data ~src ~dst ~length:(f.Trace.bytes / max 1 f.Trace.packets) ()
      in
      let eth = Packet.eth_of pkt in
      let actions = [ Lazyctrl_openflow.Action.Deliver f.Trace.dst ] in
      let flow_mod =
        Message.Flow_mod
          (Message.Add
             {
               Lazyctrl_openflow.Flow_table.priority = 10;
               ofmatch = Lazyctrl_openflow.Ofmatch.of_eth eth;
               actions;
               idle_timeout = Some (Time.of_sec 60);
               hard_timeout = None;
               cookie = 0;
             })
      in
      let fm = frame flow_mod in
      full :=
        !full
        + frame
            (Message.Packet_in
               {
                 packet = pkt;
                 reason = Message.No_match;
                 buffer_id = Message.no_buffer;
               })
        + fm
        + frame (Message.Packet_out { packet = pkt; actions });
      buffered :=
        !buffered
        + frame
            (Message.Packet_in
               { packet = pkt; reason = Message.No_match; buffer_id = 0 })
        + fm
        + frame (Message.Buffer_out { buffer_id = 0; actions }));
  (!full, !buffered)

let workload_run seed switches tenants flows out =
  let topo, trace, _ = build_workload ~seed ~switches ~tenants ~flows ~hours:24 in
  Printf.printf "topology: %d switches, %d hosts, %d tenants\n"
    (Topology.n_switches topo) (Topology.n_hosts topo)
    (List.length (Topology.tenants topo));
  Printf.printf "trace: %d flows, %d communicating pairs, %d bytes\n"
    (Trace.n_flows trace)
    (Trace.communicating_pairs trace)
    (Trace.total_bytes trace);
  Printf.printf "top-10%% pair skew: %.2f\n" (Analysis.skew trace ~top_fraction:0.1);
  Printf.printf "avg 5-way centrality: %.3f\n"
    (Analysis.avg_centrality ~rng:(Prng.create (seed + 2)) ~k:5 trace);
  Printf.printf "peak flow arrival rate: %.2f flows/s\n"
    (Analysis.flows_per_second_peak trace ~bucket:(Time.of_min 10));
  let full, buffered = punt_cost_estimate topo trace in
  let secs = Time.to_float_sec (Trace.duration trace) in
  Printf.printf
    "reactive punt cost (wire codec): %d bytes (%.1f B/s avg); buffered punts: \
     %d bytes (%.1f B/s, %.1f%% saved)\n"
    full
    (Float.of_int full /. secs)
    buffered
    (Float.of_int buffered /. secs)
    (100. *. (1. -. (Float.of_int buffered /. Float.of_int full)));
  match out with
  | Some path ->
      Trace.save trace path;
      Printf.printf "trace written to %s\n" path
  | None -> ()

let workload_cmd =
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Save the trace in binary form.")
  in
  Cmd.v
    (Cmd.info "workload"
       ~doc:"Generate a real-like traffic trace and print its statistics.")
    Term.(const workload_run $ seed_arg $ switches_arg $ tenants_arg $ flows_arg $ out)

(* --- trace (flight recorder) ----------------------------------------------------- *)

module Tracer = Lazyctrl_trace.Tracer
module Tev = Lazyctrl_trace.Event
module Tlazy = Lazyctrl_trace.Laziness
module Texport = Lazyctrl_trace.Export

let load_events path =
  match Texport.load path with
  | Error e ->
      Printf.eprintf "%s\n" e;
      exit 1
  | Ok data -> (
      (* A Chrome export is one big {"traceEvents": ...} object; JSONL
         lines each start with an event object's "ts" field. *)
      let decoded =
        if String.length data > 0 && String.length (String.trim data) > 0
           && (String.trim data).[0] = '{'
           && not (String.length data >= 6 && String.sub data 0 6 = "{\"ts\":")
        then
          match Texport.of_chrome data with
          | Ok _ as ok -> ok
          | Error _ -> Texport.of_jsonl data
        else Texport.of_jsonl data
      in
      match decoded with
      | Ok events -> events
      | Error e ->
          Printf.eprintf "%s: %s\n" path e;
          exit 1)

let print_tracer_report tracer =
  let s = Tracer.summary tracer in
  Format.printf "%a@." Tlazy.pp_summary s;
  Printf.printf "recorded %d events (%d buffered, %d evicted)\n"
    (Tracer.recorded tracer)
    (List.length (Tracer.events tracer))
    (Tracer.dropped tracer);
  Printf.printf "control bytes on the wire: %d\n" (Tracer.ctrl_bytes tracer);
  print_endline "event counts:";
  List.iter
    (fun (label, n) -> Printf.printf "  %-18s %d\n" label n)
    (Tracer.counts tracer)

let trace_record scenario seed flows sample buffer out chrome =
  let tracer = Tracer.create ~sample_every:sample ~capacity:buffer () in
  (match scenario with
  | "chaos" ->
      Printf.printf "recording chaos scenario (seed %d)...\n%!" seed;
      ignore (E.Chaos_exp.run ~tracer ~seed ())
  | _ ->
      Printf.printf
        "recording daylong slice: LazyCtrl (real, dynamic), %d flows (seed %d)...\n%!"
        flows seed;
      ignore (E.Daylong.run ~tracer ~seed ~n_flows:flows E.Daylong.Lazy_real_dynamic));
  let events = Tracer.events tracer in
  Texport.save out (Texport.to_jsonl events);
  Printf.printf "wrote %d events to %s\n" (List.length events) out;
  (match chrome with
  | Some path ->
      Texport.save path (Texport.to_chrome events);
      Printf.printf "wrote Chrome trace_event JSON to %s (open in Perfetto)\n" path
  | None -> ());
  print_tracer_report tracer

let trace_summarize file =
  let events = load_events file in
  let s = Tlazy.of_events events in
  Format.printf "%a@." Tlazy.pp_summary s

let trace_query file flow switch kind limit =
  let events = load_events file in
  let keep (e : Tev.t) =
    (match flow with None -> true | Some f -> e.Tev.flow = Some f)
    && (match switch with None -> true | Some s -> e.Tev.switch = Some s)
    && match kind with
       | None -> true
       | Some k -> String.equal (Tev.kind_label e.Tev.kind) k
  in
  let matched = List.filter keep events in
  let shown =
    match limit with
    | Some n when n >= 0 && List.length matched > n ->
        List.filteri (fun i _ -> i < n) matched
    | _ -> matched
  in
  List.iter (fun e -> Format.printf "%a@." Tev.pp e) shown;
  Printf.printf "%d of %d events matched%s\n" (List.length matched)
    (List.length events)
    (if List.length shown < List.length matched then
       Printf.sprintf " (showing first %d)" (List.length shown)
     else "")

let trace_file_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"FILE" ~doc:"Trace file (JSONL or Chrome trace_event).")

let trace_record_cmd =
  let scenario =
    Arg.(
      value
      & opt (enum [ ("daylong", "daylong"); ("chaos", "chaos") ]) "daylong"
      & info [ "scenario" ] ~docv:"SCENARIO"
          ~doc:"What to record: a daylong Fig. 7 slice or a chaos run.")
  in
  let flows =
    Arg.(
      value & opt int 20_000
      & info [ "flows" ] ~docv:"N" ~doc:"Flows in the daylong slice.")
  in
  let sample =
    Arg.(
      value & opt int 1
      & info [ "sample" ] ~docv:"N"
          ~doc:"Record only flows whose id is divisible by $(docv).")
  in
  let buffer =
    Arg.(
      value & opt int 262_144
      & info [ "buffer" ] ~docv:"N" ~doc:"Ring-buffer capacity in events.")
  in
  let out =
    Arg.(
      value
      & opt string "lazyctrl-trace.jsonl"
      & info [ "out" ] ~docv:"FILE" ~doc:"JSONL output path.")
  in
  let chrome =
    Arg.(
      value
      & opt (some string) None
      & info [ "chrome" ] ~docv:"FILE"
          ~doc:"Also write a Chrome trace_event file (for Perfetto).")
  in
  Cmd.v
    (Cmd.info "record"
       ~doc:"Run a seeded scenario with the flight recorder on.")
    Term.(
      const trace_record $ scenario $ seed_arg $ flows $ sample $ buffer $ out
      $ chrome)

let trace_summarize_cmd =
  Cmd.v
    (Cmd.info "summarize"
       ~doc:"Fold a trace file into per-flow laziness verdicts.")
    Term.(const trace_summarize $ trace_file_arg)

let trace_query_cmd =
  let flow =
    Arg.(
      value
      & opt (some int) None
      & info [ "flow" ] ~docv:"ID" ~doc:"Only events of this flow id.")
  in
  let switch =
    Arg.(
      value
      & opt (some int) None
      & info [ "switch" ] ~docv:"ID" ~doc:"Only events at this switch.")
  in
  let kind =
    Arg.(
      value
      & opt (some string) None
      & info [ "kind" ] ~docv:"KIND"
          ~doc:"Only events of this kind label (e.g. gfib_probe).")
  in
  let limit =
    Arg.(
      value
      & opt (some int) None
      & info [ "limit" ] ~docv:"N" ~doc:"Print at most $(docv) events.")
  in
  Cmd.v
    (Cmd.info "query" ~doc:"Filter a trace file by flow, switch or kind.")
    Term.(const trace_query $ trace_file_arg $ flow $ switch $ kind $ limit)

let trace_cmd =
  Cmd.group
    (Cmd.info "trace"
       ~doc:
         "Flight recorder: record a traced simulation, or summarize / \
          query an existing trace file.")
    [ trace_record_cmd; trace_summarize_cmd; trace_query_cmd ]

(* --- experiment ------------------------------------------------------------------ *)

let experiment name quick =
  let print = Table.print in
  match name with
  | "table2" -> print (E.Grouping_exp.table2 ())
  | "fig6a" -> print (E.Grouping_exp.fig6a ())
  | "fig6b" -> print (E.Grouping_exp.fig6b ())
  | "fig7" ->
      print (E.Daylong.fig7_table ?n_flows:(if quick then Some 30_000 else None) ())
  | "fig7-bytes" ->
      print
        (E.Daylong.fig7_bytes_table
           ?n_flows:(if quick then Some 30_000 else None)
           ())
  | "fig8" ->
      print (E.Daylong.fig8_table ?n_flows:(if quick then Some 30_000 else None) ())
  | "fig9" ->
      print (E.Daylong.fig9_table ?n_flows:(if quick then Some 30_000 else None) ())
  | "table1" ->
      print (E.Failover_exp.inference_table ());
      print (E.Failover_exp.endtoend_table ())
  | "cluster-failover" -> print (E.Cluster_exp.table ())
  | "chaos" ->
      print
        (E.Chaos_exp.table
           ?losses:(if quick then Some [ 0.0; 0.05 ] else None)
           ())
  | "coldcache" -> print (E.Coldcache.table ())
  | "storage" -> print (E.Storage_exp.table ())
  | "ablate-size" -> print (E.Ablation.group_size_table ())
  | "ablate-negotiation" -> print (E.Ablation.negotiation_table ())
  | "ablate-bloom" -> print (E.Ablation.bloom_table ())
  | other -> Printf.eprintf "unknown experiment %S\n" other

let experiment_cmd =
  let exp_name =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"NAME"
          ~doc:
            "table1 | table2 | fig6a | fig6b | fig7 | fig7-bytes | fig8 | \
             fig9 | chaos | cluster-failover | coldcache | storage | \
             ablate-size | ablate-negotiation | ablate-bloom")
  in
  let quick =
    Arg.(value & flag & info [ "quick" ] ~doc:"Smaller workloads, faster runs.")
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Re-run one of the paper's tables or figures.")
    Term.(const experiment $ exp_name $ quick)

(* --- shard-check ------------------------------------------------------------ *)

(* Determinism gate for the domain-parallel engine, cheap enough for a
   CI matrix leg: run the same seeded scenario twice at the requested
   domain count and once single-domain, and require all three
   fingerprints byte-identical.  Any divergence — a data race, an
   unordered cross-shard drain, a window misalignment — shows up as a
   mismatch and a nonzero exit. *)

let shard_check seed switches tenants domains shards =
  let spec =
    {
      Placement.n_switches = switches;
      n_tenants = tenants;
      tenant_size_min = 4;
      tenant_size_max = 8;
      racks_per_tenant = 2;
      stray_fraction = 0.1;
    }
  in
  let run_once ~domains =
    let topo = Placement.generate ~rng:(Prng.create seed) spec in
    let net =
      Network.create ?domains
        ~shards:(if shards > 0 then shards else 4)
        ~mode:Network.Lazy ~topo ~horizon:(Time.of_min 5) ()
    in
    Network.bootstrap net ();
    Network.run net ~until:(Time.of_sec 5);
    List.iter
      (fun tenant ->
        match Topology.tenant_hosts topo tenant with
        | first :: rest ->
            List.iter
              (fun (peer : Lazyctrl_net.Host.t) ->
                Network.start_flow net ~src:first.Lazyctrl_net.Host.id
                  ~dst:peer.id ~bytes:12_000 ~packets:5)
              rest
        | [] -> ())
      (Topology.tenants topo);
    Network.run net ~until:(Time.of_min 3);
    let fp = Network.fingerprint net in
    let st = Network.stats net in
    let d = Network.domains net in
    let s = Network.switch_shards net in
    let w = Network.window net in
    Network.shutdown net;
    (fp, st, d, s, w)
  in
  let requested = if domains > 0 then Some domains else None in
  let fp_a, st, d, s, w = run_once ~domains:requested in
  let fp_b, _, _, _, _ = run_once ~domains:requested in
  let fp_1, _, _, _, _ = run_once ~domains:(Some 1) in
  Printf.printf
    "shard-check: %d switches on %d+1 logical shards, window %d us, %d \
     domain(s), seed %d\n"
    switches s
    (Time.to_ns w / 1_000)
    d seed;
  let e = st.Network.engine in
  Printf.printf
    "exchange: %d windows, %d cross-shard messages (max %d/window), %d events\n"
    e.Lazyctrl_sim.Shard_engine.windows e.Lazyctrl_sim.Shard_engine.messages
    e.Lazyctrl_sim.Shard_engine.max_window_batch
    e.Lazyctrl_sim.Shard_engine.events;
  Printf.printf "flows: %d started, %d delivered; underlay %d delivered / %d dropped\n"
    st.Network.flows_started st.Network.flows_delivered
    st.Network.underlay_delivered st.Network.underlay_dropped;
  Printf.printf "fingerprint: %s (%d bytes)\n"
    (Digest.to_hex (Digest.string fp_a))
    (String.length fp_a);
  let ok_double = String.equal fp_a fp_b in
  let ok_cross = String.equal fp_a fp_1 in
  Printf.printf "double-run %d-domain:    %s\n" d
    (if ok_double then "identical" else "MISMATCH");
  Printf.printf "cross-domain (%dd vs 1d): %s\n" d
    (if ok_cross then "identical" else "MISMATCH");
  if not (ok_double && ok_cross) then begin
    prerr_endline "shard-check: FAIL — fingerprints diverge";
    exit 1
  end;
  print_endline "shard-check: PASS"

let shard_check_cmd =
  let switches =
    Arg.(
      value & opt int 12
      & info [ "switches" ] ~docv:"N" ~doc:"Number of edge switches.")
  in
  let tenants =
    Arg.(
      value & opt int 6 & info [ "tenants" ] ~docv:"N" ~doc:"Number of tenants.")
  in
  let domains =
    Arg.(
      value & opt int 0
      & info [ "domains" ] ~docv:"N"
          ~doc:
            "Worker domain count (0: the LAZYCTRL_DOMAINS environment \
             variable, or 1).")
  in
  let shards =
    Arg.(
      value & opt int 0
      & info [ "shards" ] ~docv:"N"
          ~doc:"Logical switch shards (0: auto, min 4 or the switch count).")
  in
  Cmd.v
    (Cmd.info "shard-check"
       ~doc:
         "Verify the domain-parallel engine is deterministic: double-run \
          and cross-domain fingerprint comparison, nonzero exit on any \
          divergence.")
    Term.(
      const shard_check $ seed_arg $ switches $ tenants $ domains $ shards)

(* --- chaos ----------------------------------------------------------------- *)

let chaos_cluster seed switches tenants loss faults window members =
  let module Chaos = Lazyctrl_chaos in
  let module CR = Lazyctrl_cluster.Chaos_runner in
  let base = CR.default_config in
  let cfg =
    {
      base with
      CR.seed;
      n_members = members;
      n_switches = switches;
      n_tenants = tenants;
      loss;
      dup = loss /. 5.0;
      spec =
        {
          base.CR.spec with
          Chaos.Scenario.n_faults = faults;
          window = Time.of_sec window;
        };
    }
  in
  Printf.printf
    "chaos --cluster: %d controllers, %d switches, %d tenants, %.0f%% loss, %d \
     faults over %ds (seed %d)\n%!"
    members switches tenants (100. *. loss) faults window seed;
  let r = CR.run cfg in
  print_endline "fault schedule:";
  List.iter
    (fun e -> Printf.printf "  %s\n" (Format.asprintf "%a" Chaos.Fault.pp_event e))
    r.CR.events;
  let s = r.CR.reliability in
  Printf.printf
    "reliable sessions: %d data sent, %d retransmits, %d dups ignored, %d \
     give-ups, %d violations\n"
    s.Lazyctrl_openflow.Reliable.data_sent
    s.Lazyctrl_openflow.Reliable.retransmits
    s.Lazyctrl_openflow.Reliable.dups_ignored
    s.Lazyctrl_openflow.Reliable.give_ups
    s.Lazyctrl_openflow.Reliable.violations;
  let m = r.CR.member_stats in
  Printf.printf
    "cluster: %d rehomes, %d adoptions, %d releases, %d handoffs, %d peer \
     deaths / %d revivals, %d controller-failure verdicts\n"
    m.Lazyctrl_cluster.Member.rehomes_sent m.Lazyctrl_cluster.Member.adoptions
    m.Lazyctrl_cluster.Member.releases
    m.Lazyctrl_cluster.Member.handoffs_offered
    m.Lazyctrl_cluster.Member.peer_deaths
    m.Lazyctrl_cluster.Member.peer_revivals
    m.Lazyctrl_cluster.Member.controller_failure_verdicts;
  Printf.printf
    "traffic: %d flows started, %d delivered, %d unresolved; involvement %.4f\n"
    r.CR.flows_started r.CR.flows_delivered r.CR.resolutions_failed
    r.CR.involvement;
  print_endline "invariants after settling:";
  List.iter
    (fun rep ->
      Printf.printf "  %s\n" (Format.asprintf "%a" Chaos.Invariant.pp_report rep))
    r.CR.reports;
  match r.CR.converged_after with
  | Some t ->
      Printf.printf "converged %.1f s after the last repair\n"
        (Time.to_float_sec t)
  | None ->
      print_endline "DID NOT CONVERGE before the settle deadline";
      exit 1

let chaos seed switches tenants loss raw faults window cluster members =
  if cluster then chaos_cluster seed switches tenants loss faults window members
  else begin
  let module Chaos = Lazyctrl_chaos in
  let spec =
    {
      Chaos.Scenario.default with
      Chaos.Scenario.n_faults = faults;
      window = Time.of_sec window;
    }
  in
  let cfg =
    {
      Chaos.Runner.default_config with
      Chaos.Runner.seed;
      n_switches = switches;
      n_tenants = tenants;
      loss;
      dup = loss /. 5.0;
      reliable = not raw;
      spec;
    }
  in
  Printf.printf
    "chaos: %d switches, %d tenants, %.0f%% loss, %d faults over %ds, state \
     delivery %s (seed %d)\n%!"
    switches tenants (100. *. loss) faults window
    (if raw then "fire-and-forget" else "reliable")
    seed;
  let r = Chaos.Runner.run cfg in
  print_endline "fault schedule:";
  List.iter
    (fun e -> Printf.printf "  %s\n" (Format.asprintf "%a" Chaos.Fault.pp_event e))
    r.Chaos.Runner.events;
  let l = r.Chaos.Runner.link in
  Printf.printf
    "channels: %d sent, %d delivered (%.1f%%), %d lost to chaos, %d duplicated\n"
    l.Network.links_sent l.Network.links_delivered
    (100. *. Chaos.Runner.delivery_ratio l)
    l.Network.links_lost l.Network.links_duplicated;
  let s = r.Chaos.Runner.reliability in
  Printf.printf
    "reliable sessions: %d data sent, %d retransmits, %d dups ignored, %d \
     give-ups\n"
    s.Lazyctrl_openflow.Reliable.data_sent
    s.Lazyctrl_openflow.Reliable.retransmits
    s.Lazyctrl_openflow.Reliable.dups_ignored
    s.Lazyctrl_openflow.Reliable.give_ups;
  print_endline "invariants after settling:";
  List.iter
    (fun rep ->
      Printf.printf "  %s\n" (Format.asprintf "%a" Chaos.Invariant.pp_report rep))
    r.Chaos.Runner.reports;
  match r.Chaos.Runner.converged_after with
  | Some t ->
      Printf.printf "converged %.1f s after the last repair\n"
        (Time.to_float_sec t)
  | None ->
      print_endline "DID NOT CONVERGE before the settle deadline";
      exit 1
  end

let chaos_cmd =
  let loss =
    Arg.(
      value & opt float 0.05
      & info [ "loss" ] ~docv:"P"
          ~doc:"Baseline per-message channel loss probability.")
  in
  let raw =
    Arg.(
      value & flag
      & info [ "fire-and-forget" ]
          ~doc:"Disable the reliable state-delivery layer (the old path).")
  in
  let faults =
    Arg.(
      value & opt int 6
      & info [ "faults" ] ~docv:"N" ~doc:"Number of fault events to inject.")
  in
  let window =
    Arg.(
      value & opt int 30
      & info [ "window" ] ~docv:"SECONDS" ~doc:"Fault injection window.")
  in
  let switches =
    Arg.(
      value & opt int 12
      & info [ "switches" ] ~docv:"N" ~doc:"Number of edge switches.")
  in
  let tenants =
    Arg.(
      value & opt int 6 & info [ "tenants" ] ~docv:"N" ~doc:"Number of tenants.")
  in
  let cluster =
    Arg.(
      value & flag
      & info [ "cluster" ]
          ~doc:
            "Run against a controller cluster instead of the single \
             controller: faults are drawn from the cluster vocabulary \
             (controller kills, coordination partitions, switch power \
             cycles, loss storms) and the cluster invariants — re-homing, \
             disjoint ownership, cluster-wide exactly-once — are checked.")
  in
  let members =
    Arg.(
      value & opt int 3
      & info [ "members" ] ~docv:"N"
          ~doc:"Cluster size for $(b,--cluster).")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Inject a seeded multi-fault scenario into a lossy network and \
          check the convergence invariants.")
    Term.(
      const chaos $ seed_arg $ switches $ tenants $ loss $ raw $ faults
      $ window $ cluster $ members)

let () =
  let info =
    Cmd.info "lazyctrl" ~version:"1.0.0"
      ~doc:"LazyCtrl: scalable hybrid network control (ICDCS 2015) — simulator CLI"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            simulate_cmd;
            group_cmd;
            workload_cmd;
            trace_cmd;
            experiment_cmd;
            shard_check_cmd;
            chaos_cmd;
          ]))
