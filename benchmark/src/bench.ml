module W = Workload
module Time = Lazyctrl_sim.Time
module Engine = Lazyctrl_sim.Engine
module Clock = Lazyctrl_perf.Clock
module Json = Lazyctrl_perf.Json
module Tracer = Lazyctrl_trace.Tracer
module Event = Lazyctrl_trace.Event
module Laziness = Lazyctrl_trace.Laziness
module Edge_switch = Lazyctrl_switch.Edge_switch
module Reliable = Lazyctrl_openflow.Reliable
module Controller = Lazyctrl_controller.Controller
module Of_controller = Lazyctrl_baseline.Of_controller
module Shard_engine = Lazyctrl_sim.Shard_engine
module Stats = Lazyctrl_util.Stats

type metric = { name : string; unit_ : string; value : float }

type result = {
  mode : string;
  workload : W.t;
  seed : int;
  hosts : int;
  switches : int;
  reps : int;
  problems : string list;
  counts : W.counts;
  attempted : int;
  failed : int;
  metrics : metric list;
}

let seconds_since t0 = float_of_int (Clock.elapsed_ns ~since:t0) *. 1e-9

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  Stats.percentile_of_sorted a 0.5

let ratio a b = if b = 0. then 0. else a /. b
let fi = float_of_int

(* Wall nanoseconds per event: one sample per [Engine.step] on a single
   engine, one per slice (slice time / its events) on the sharded plane. *)
module Samples = struct
  type t = { mutable a : int array; mutable n : int; mutable pending_max : int }

  let create () = { a = Array.make 65_536 0; n = 0; pending_max = 0 }

  let add t v =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- v;
    t.n <- t.n + 1

  let sorted t =
    let a = Array.init t.n (fun i -> fi t.a.(i)) in
    Array.sort Float.compare a;
    a
end

(* Fires exactly the events [Network.run ~until] would, timing each. *)
let step_until engine until (s : Samples.t) =
  let continue = ref true in
  while !continue do
    match Engine.next_time engine with
    | Some at when Time.(at <= until) ->
        let t0 = Clock.now_ns () in
        ignore (Engine.step engine);
        Samples.add s (Clock.elapsed_ns ~since:t0);
        s.pending_max <- max s.pending_max (Engine.pending engine)
    | _ -> continue := false
  done

(* Keeps nothing that references the network, so a finished rep's
   state is garbage before the next one starts. *)
type rep = {
  spans : (string * float) list;
  topology : Lazyctrl_topo.Topology.t;
  trace : Lazyctrl_traffic.Trace.t;
  setup_s : float;
  run_s : float;
  peak_words : int;
  counts : W.counts;
  first_pkt_ms : float;
  layers : W.layers;
  gc : Gc.stat;  (** counters accumulated over the run phase only *)
}

let gc_delta (a : Gc.stat) (b : Gc.stat) =
  {
    b with
    Gc.minor_words = b.Gc.minor_words -. a.Gc.minor_words;
    minor_collections = b.Gc.minor_collections - a.Gc.minor_collections;
    major_collections = b.Gc.major_collections - a.Gc.major_collections;
  }

let one_rep ?steps ~traced w ~seed =
  Gc.full_major ();
  let t0 = Clock.now_ns () in
  let setup = W.setup ~traced w ~seed in
  let setup_s = seconds_since t0 in
  let net = setup.W.net in
  let horizon = W.horizon w in
  let advance next =
    match (steps, net.W.engine) with
    | None, _ -> net.W.advance next
    | Some s, Some engine ->
        step_until engine next s;
        net.W.advance next
    | Some s, None ->
        let events = (net.W.counts ()).W.events in
        let t = Clock.now_ns () in
        net.W.advance next;
        let dt = Clock.elapsed_ns ~since:t in
        let n = (net.W.counts ()).W.events - events in
        if n > 0 then Samples.add s (dt / n)
  in
  let gc0 = Gc.quick_stat () in
  let peak = ref 0 in
  let t1 = Clock.now_ns () in
  let cursor = ref Time.zero in
  while Time.(!cursor < horizon) do
    let next = Time.min horizon (Time.add !cursor net.W.slice) in
    advance next;
    peak := max !peak (Gc.quick_stat ()).Gc.heap_words;
    cursor := next
  done;
  let run_s = seconds_since t1 in
  let gc = gc_delta gc0 (Gc.quick_stat ()) in
  Printf.eprintf "%s%s rep: setup %.3f s, run %.3f s, peak heap %d words\n%!" w.W.name
    (if traced then " traced" else "")
    setup_s run_s !peak;
  let rep =
    {
      spans = setup.W.spans;
      topology = setup.W.topology;
      trace = setup.W.trace;
      setup_s;
      run_s;
      peak_words = !peak;
      counts = net.W.counts ();
      first_pkt_ms = net.W.first_pkt_ms ();
      layers = net.W.layers ();
      gc;
    }
  in
  net.W.close ();
  rep

(* Fixed-work repetitions until [seconds] have passed: at least
   [min_reps], and no new one that would likely end past the budget. *)
let repeat ~min_reps ~seconds f =
  let t0 = Clock.now_ns () in
  let rec go acc n =
    let spent = seconds_since t0 in
    if n >= min_reps && (n = 0 || spent +. (spent /. fi n) > seconds) then List.rev acc
    else go (f () :: acc) (n + 1)
  in
  go [] 0

let same_counts (a : W.counts) (b : W.counts) =
  a.events = b.events && a.injected = b.injected && a.delivered = b.delivered
  && a.requests = b.requests && a.ctrl_bytes = b.ctrl_bytes

let check_counts = function
  | [] -> []
  | (label0, (c0 : W.counts)) :: rest ->
      List.filter_map
        (fun (label, (c : W.counts)) ->
          if same_counts c0 c then None
          else
            Some
              (Printf.sprintf
                 "%s vs %s: events %d/%d, delivered %d/%d, requests %d/%d, ctrl bytes %d/%d"
                 label0 label c0.events c.events c0.delivered c.delivered c0.requests
                 c.requests c0.ctrl_bytes c.ctrl_bytes))
        rest

let violations r = r.layers.W.reliable.Reliable.violations

let result ~mode w ~seed reps ~problems metrics =
  let first = List.hd reps in
  let topo = first.topology in
  {
    mode;
    workload = w;
    seed;
    hosts = Lazyctrl_topo.Topology.n_hosts topo;
    switches = Lazyctrl_topo.Topology.n_switches topo;
    reps = List.length reps;
    problems =
      problems
      @ List.filter_map
          (fun r ->
            let v = violations r in
            if v > 0 then Some (Printf.sprintf "reliable layer reports %d violations" v)
            else None)
          reps;
    counts = first.counts;
    attempted = List.length reps;
    failed =
      List.length
        (List.filter
           (fun r -> violations r > 0 || not (same_counts first.counts r.counts))
           reps);
    metrics;
  }

let labelled prefix reps =
  List.mapi (fun i r -> (Printf.sprintf "%s %d" prefix (i + 1), r.counts)) reps

(* --- run: end-to-end metrics ------------------------------------------------- *)

let setups_wanted = 15

let run w ~seed ~seconds =
  let reps = repeat ~min_reps:3 ~seconds (fun () -> one_rep ~traced:false w ~seed) in
  let extra =
    List.init (max 0 (setups_wanted - List.length reps)) (fun _ ->
        Gc.full_major ();
        let t0 = Clock.now_ns () in
        let s = W.setup w ~seed in
        let dt = seconds_since t0 in
        s.W.net.W.close ();
        dt)
  in
  let first = List.hd reps in
  let horizon_s = Time.to_float_sec (W.horizon w) in
  let word_mib = fi (Sys.word_size / 8) /. 1048576. in
  let m name unit_ value = { name; unit_; value } in
  result ~mode:"run" w ~seed reps
    ~problems:(check_counts (labelled "run" reps))
    [
      m "flows_per_s" "flows/s"
        (median (List.map (fun r -> fi r.counts.W.delivered /. r.run_s) reps));
      m "sim_speed" "sim_s/s" (median (List.map (fun r -> horizon_s /. r.run_s) reps));
      m "setup_s" "s" (median (List.map (fun r -> r.setup_s) reps @ extra));
      (* Later reps reuse the heap the first one grew, so only the first,
         on a fresh process, shows what one simulation needs. *)
      m "peak_heap_mb" "MiB" (fi first.peak_words *. word_mib);
    ]

(* --- trace: per-layer metrics ------------------------------------------------ *)

let laziness tracers =
  (* A flow's verdict is the most expensive machinery any shard saw. *)
  let ranks = Hashtbl.create 1024 in
  List.iter
    (fun t ->
      List.iter
        (fun (flow, v) ->
          let r = Laziness.rank v in
          match Hashtbl.find_opt ranks flow with
          | Some r0 when r0 >= r -> ()
          | _ -> Hashtbl.replace ranks flow r)
        (Tracer.summary t).Laziness.per_flow)
    tracers;
  let by = Array.make 3 0 in
  Hashtbl.iter (fun _ r -> by.(r) <- by.(r) + 1) ranks;
  let n = fi (Hashtbl.length ranks) in
  (ratio (fi by.(0)) n, ratio (fi by.(1)) n, ratio (fi by.(2)) n)

let trace_counts tracers =
  List.init Event.n_tags (fun tag ->
      let label = Event.tag_label tag in
      ( label,
        List.fold_left
          (fun acc t -> acc + Option.value ~default:0 (List.assoc_opt label (Tracer.counts t)))
          0 tracers ))

let layer_metrics ~untraced ~traced ~(steps : Samples.t) ~(costs : Probes.costs) =
  let last = List.hd (List.rev traced) in
  let l = last.layers and c = last.counts in
  let run_s = median (List.map (fun r -> r.run_s) untraced) in
  let traced_s = median (List.map (fun r -> r.run_s) traced) in
  let count name v = { name; unit_ = "count"; value = fi v } in
  let share name v = { name; unit_ = "share"; value = v } in
  let ns name v = { name; unit_ = "ns"; value = v } in
  let spans =
    List.map
      (fun (name, _) ->
        {
          name;
          unit_ = "s";
          value = median (List.map (fun r -> List.assoc name r.spans) untraced);
        })
      (List.hd untraced).spans
  in
  let sorted = Samples.sorted steps in
  let total_ns = Array.fold_left ( +. ) 0. sorted in
  let heavy_n, heavy_ns =
    Array.fold_left
      (fun (n, ns) v -> if v >= 100_000. then (n + 1, ns +. v) else (n, ns))
      (0, 0.) sorted
  in
  let sw = l.W.switch in
  let from_hosts = fi sw.Edge_switch.packets_from_hosts in
  let link f = match l.W.links with Some t -> f t | None -> 0 in
  let controller f = match l.W.controller with Some s -> f s | None -> 0 in
  let of_controller f = match l.W.of_controller with Some s -> f s | None -> 0 in
  let exchange f = match l.W.exchange with Some s -> f s | None -> 0 in
  let rel = l.W.reliable in
  let local, gossip, controlled = laziness l.W.tracers in
  let msgs = link (fun t -> t.Lazyctrl_core.Network.links_sent) in
  let wire_s = fi msgs *. (costs.Probes.encode_ns +. costs.Probes.decode_ns) *. 1e-9 in
  let windows = exchange (fun s -> s.Shard_engine.windows) in
  let messages = exchange (fun s -> s.Shard_engine.messages) in
  let shard_events = exchange (fun s -> s.Shard_engine.events) in
  let gc = List.map (fun r -> r.gc) untraced in
  let explained =
    (fi c.W.events *. costs.Probes.bare_step_ns *. 1e-9)
    +. wire_s
    +. (fi sw.Edge_switch.lfib_handled *. costs.Probes.lfib_lookup_ns *. 1e-9)
    +. (fi sw.Edge_switch.gfib_handled *. costs.Probes.gfib_probe_ns *. 1e-9)
  in
  let delivered = fi c.W.delivered in
  spans
  @ [
      { name = "sim.ctrl_req_per_flow"; unit_ = "req/flow"; value = ratio (fi c.W.requests) delivered };
      { name = "sim.ctrl_bytes_per_flow"; unit_ = "B/flow"; value = ratio (fi c.W.ctrl_bytes) delivered };
      { name = "sim.first_pkt_ms"; unit_ = "ms"; value = last.first_pkt_ms };
      share "sim.lost_share" (ratio (fi (c.W.injected - c.W.delivered)) (fi c.W.injected));
      count "engine.events" c.W.events;
      ns "engine.step_ns_p50" (Stats.percentile_of_sorted sorted 0.5);
      ns "engine.step_ns_p99" (Stats.percentile_of_sorted sorted 0.99);
      ns "engine.step_ns_max" (Stats.percentile_of_sorted sorted 1.0);
      count "engine.heavy_steps" heavy_n;
      share "engine.heavy_share" (ratio heavy_ns total_ns);
      count "engine.pending_max" steps.Samples.pending_max;
      ns "engine.bare_step_ns" costs.Probes.bare_step_ns;
      count "switch.pkts_from_hosts" sw.Edge_switch.packets_from_hosts;
      count "switch.delivered" sw.Edge_switch.packets_delivered;
      count "switch.encap_sent" sw.Edge_switch.encap_sent;
      count "switch.flow_table_handled" sw.Edge_switch.flow_table_handled;
      count "switch.lfib_handled" sw.Edge_switch.lfib_handled;
      count "switch.gfib_handled" sw.Edge_switch.gfib_handled;
      count "switch.gfib_duplicates" sw.Edge_switch.gfib_duplicates;
      count "switch.fp_drops" sw.Edge_switch.fp_drops;
      count "switch.punted" sw.Edge_switch.punted;
      count "switch.arp_local" sw.Edge_switch.arp_local_answered;
      count "switch.arp_escalated" sw.Edge_switch.arp_group_escalated;
      count "switch.adverts_sent" sw.Edge_switch.adverts_sent;
      count "switch.keepalives_sent" sw.Edge_switch.keepalives_sent;
      share "switch.fast_path_share"
        (ratio
           (fi
              (sw.Edge_switch.flow_table_handled + sw.Edge_switch.lfib_handled
             + sw.Edge_switch.gfib_handled))
           from_hosts);
      share "switch.punt_share" (ratio (fi sw.Edge_switch.punted) from_hosts);
      ns "switch.lfib_lookup_ns" costs.Probes.lfib_lookup_ns;
      ns "switch.gfib_probe_ns" costs.Probes.gfib_probe_ns;
      count "channel.msgs_sent" msgs;
      count "channel.bytes_sent" (link (fun t -> t.Lazyctrl_core.Network.links_bytes_sent));
      count "channel.ctrl_bytes" c.W.ctrl_bytes;
      count "channel.dropped" (link (fun t -> t.Lazyctrl_core.Network.links_dropped));
      count "channel.lost" (link (fun t -> t.Lazyctrl_core.Network.links_lost));
      ns "wire.encode_ns" costs.Probes.encode_ns;
      ns "wire.decode_ns" costs.Probes.decode_ns;
      { name = "wire.words_per_msg"; unit_ = "words"; value = costs.Probes.words_per_msg };
      share "wire.est_share" (ratio wire_s run_s);
      count "reliable.data_sent" rel.Reliable.data_sent;
      count "reliable.retransmits" rel.Reliable.retransmits;
      count "reliable.acks_sent" rel.Reliable.acks_sent;
      count "reliable.give_ups" rel.Reliable.give_ups;
      count "reliable.violations" rel.Reliable.violations;
      count "controller.requests" (controller (fun s -> s.Controller.requests));
      count "controller.packet_ins" (controller (fun s -> s.Controller.packet_ins));
      count "controller.arp_escalations" (controller (fun s -> s.Controller.arp_escalations));
      count "controller.state_reports" (controller (fun s -> s.Controller.state_reports));
      count "controller.flow_mods_sent" (controller (fun s -> s.Controller.flow_mods_sent));
      count "controller.grouping_updates" (controller (fun s -> s.Controller.grouping_updates));
      count "controller.full_regroups" (controller (fun s -> s.Controller.full_regroups));
      count "of_controller.requests" (of_controller (fun s -> s.Of_controller.requests));
      count "of_controller.packet_ins" (of_controller (fun s -> s.Of_controller.packet_ins));
      count "of_controller.flow_mods_sent"
        (of_controller (fun s -> s.Of_controller.flow_mods_sent));
      count "of_controller.floods" (of_controller (fun s -> s.Of_controller.floods));
    ]
  @ List.map (fun (label, n) -> count ("trace.count." ^ label) n) (trace_counts l.W.tracers)
  @ [
      share "laziness.local_share" local;
      share "laziness.gossip_share" gossip;
      share "laziness.controller_share" controlled;
      share "trace.overhead_share" ((traced_s /. run_s) -. 1.);
      count "exchange.windows" windows;
      count "exchange.messages" messages;
      count "exchange.max_window_batch" (exchange (fun s -> s.Shard_engine.max_window_batch));
      count "exchange.events" shard_events;
      { name = "exchange.msgs_per_window"; unit_ = "msgs"; value = ratio (fi messages) (fi windows) };
      share "exchange.cross_share" (ratio (fi messages) (fi shard_events));
      { name = "exchange.window_us"; unit_ = "us"; value = ratio (run_s *. 1e6) (fi windows) };
      {
        name = "gc.minor_words_per_flow";
        unit_ = "words/flow";
        value = median (List.map (fun g -> ratio g.Gc.minor_words delivered) gc);
      };
      count "gc.minor_collections" (List.hd gc).Gc.minor_collections;
      count "gc.major_collections" (List.hd gc).Gc.major_collections;
      share "attrib.residual_share" (1. -. ratio explained run_s);
    ]

(* 200k operations per unit-cost repetition at 25 s, fewer in a shorter run. *)
let probe_ops seconds = max 2_000 (int_of_float (seconds *. 8_000.))

let trace w ~seed ~seconds =
  let steps = ref (Samples.create ()) in
  let pairs =
    repeat ~min_reps:1 ~seconds (fun () ->
        let u = one_rep ~traced:false w ~seed in
        (* Step times come from the last traced rep alone, so memory
           stays at one rep's worth of samples. *)
        steps := Samples.create ();
        let t = one_rep ~steps:!steps ~traced:true w ~seed in
        (u, t))
  in
  let untraced = List.map fst pairs and traced = List.map snd pairs in
  let last = List.hd (List.rev traced) in
  let costs = Probes.measure ~ops:(probe_ops seconds) last.topology last.trace in
  let problems =
    check_counts
      (labelled "untraced" untraced @ labelled "traced step-driven" traced)
  in
  result ~mode:"trace" w ~seed (untraced @ traced) ~problems
    (layer_metrics ~untraced ~traced ~steps:!steps ~costs)

(* --- output ------------------------------------------------------------------ *)

let header_json r =
  let num n = Json.Num (fi n) in
  Json.Obj
    [
      ("benchmark", Json.Str "lazyctrl");
      ("mode", Json.Str r.mode);
      ("workload", Json.Str r.workload.W.name);
      ("seed", num r.seed);
      ("reps", num r.reps);
      ("host_cores", num (Lazyctrl_perf.Report.detected_host_cores ()));
      ("domains", num (W.domains r.workload));
      ("hosts", num r.hosts);
      ("switches", num r.switches);
      ("flows", num r.workload.W.flows);
      ("window_h", num r.workload.W.hours);
      ("horizon_s", Json.Num (Time.to_float_sec (W.horizon r.workload)));
      ("events", num r.counts.W.events);
      ("injected", num r.counts.W.injected);
      ("delivered", num r.counts.W.delivered);
      ("requests", num r.counts.W.requests);
      ("ctrl_bytes", num r.counts.W.ctrl_bytes);
    ]

let result_json r =
  Json.Obj
    [
      ("correct", Json.Bool (List.is_empty r.problems));
      ("attempted", Json.Num (fi r.attempted));
      ("failed", Json.Num (fi r.failed));
      ( "metrics",
        Json.Obj
          (List.map
             (fun m ->
               (m.name, Json.Obj [ ("value", Json.Num m.value); ("unit", Json.Str m.unit_) ]))
             r.metrics) );
    ]

(* Strings are escaped, so every newline [Json.to_string] emits is layout. *)
let one_line j =
  String.trim
    (String.map (fun c -> if Char.equal c '\n' then ' ' else c) (Json.to_string ~indent:0 j))
