(* Measurement harness: fixed-work perf targets of the simulator's hot
   primitives and end-to-end scenarios (lib/perf), the H00x hot-path
   probes, and the baseline comparison behind `make bench-check`.  The
   paper's tables and figures are `lazyctrl experiment` (bin/).

   Usage:  dune exec bench/main.exe                      (run everything)
           dune exec bench/main.exe -- --quick perf --json FILE
           dune exec bench/main.exe -- compare BASE.json CUR.json
           dune exec bench/main.exe -- --list            (list targets) *)

module Perf = Lazyctrl_perf

let section title =
  Printf.printf "\n=== %s ===\n%!" title

let quick = ref false

(* --- perf regression targets ------------------------------------------------ *)

(* Fixed-work benchmarks of the simulator's hot primitives, measured by
   lib/perf and emitted as schema-versioned JSON with --json (the
   regression gate behind `make bench-check`).  Each target does the
   same deterministic work every run; only the wall time varies. *)

let perf_results : Perf.Measure.result list ref = ref []

let perf_record r =
  perf_results := r :: !perf_results;
  Format.printf "%a@." Perf.Measure.pp_row r

let perf_scale n = if !quick then max 1 (n / 4) else n

let perf_reps () = if !quick then 3 else 5

(* engine-event: schedule/fire throughput of Sim.Engine, including a
   recurrence timer and nested reschedules — the patterns every
   simulated switch and controller timer goes through. *)
let perf_engine_event () =
  let module Engine = Lazyctrl_sim.Engine in
  let module Time = Lazyctrl_sim.Time in
  let n = perf_scale 200_000 in
  let delays =
    let rng = Lazyctrl_util.Prng.create 17 in
    Array.init n (fun _ -> Time.of_ns (Lazyctrl_util.Prng.int rng 1_000_000))
  in
  let fired = ref 0 in
  let workload () =
    let e = Engine.create () in
    let tick = Engine.every e ~period:(Time.of_us 10) (fun () -> ()) in
    let count = ref 0 in
    Array.iter
      (fun d ->
        ignore
          (Engine.schedule e ~after:d (fun () ->
               incr count;
               (* every 8th event reschedules, as protocol handlers do *)
               if !count land 7 = 0 then
                 ignore (Engine.schedule e ~after:d (fun () -> ())))))
      delays;
    Engine.run e ~until:(Time.of_ms 2);
    Engine.cancel e tick;
    Engine.run e;
    fired := Engine.events_processed e
  in
  perf_record
    (Perf.Measure.run ~name:"engine-event" ~reps:(perf_reps ()) ~ops_per_rep:n
       ~events:(fun () -> !fired)
       workload)

(* engine-mix: the engine at steady state under day-lazy's delays.  A
   population of 4,096 events stays pending (day-lazy holds ~5k); each
   op is one step whose event schedules its successor with the next
   delay of a fixed draw from the benchmark's measured mix: 150 us peer
   link 39.5%, 30 s 17.6%, 1 ms control link 12.2%, 20 us host port
   8.9%, 2 min sync 2.2%, 250 us underlay 1.5%, the rest uniform in
   [0, 60 s).  The uniform draws of engine-event and hp-engine-step are
   the one pattern the engine's delay lanes do not serve. *)
let perf_engine_mix () =
  let module Engine = Lazyctrl_sim.Engine in
  let module Time = Lazyctrl_sim.Time in
  let module Prng = Lazyctrl_util.Prng in
  let n = perf_scale 200_000 in
  let delays =
    let rng = Prng.create 43 in
    Array.init 65_536 (fun _ ->
        let u = Prng.int rng 1000 in
        if u < 395 then Time.of_us 150
        else if u < 571 then Time.of_sec 30
        else if u < 693 then Time.of_ms 1
        else if u < 782 then Time.of_us 20
        else if u < 804 then Time.of_min 2
        else if u < 819 then Time.of_us 250
        else Time.of_ns (Prng.int rng 60_000_000_000))
  in
  let e = Engine.create () in
  let next = ref 0 in
  let rec refill () =
    let d = Array.unsafe_get delays (!next land 65_535) in
    incr next;
    ignore (Engine.schedule e ~after:d refill)
  in
  for _ = 1 to 4_096 do
    refill ()
  done;
  let workload () =
    for _ = 1 to n do
      ignore (Engine.step e)
    done
  in
  perf_record
    (Perf.Measure.run ~name:"engine-mix" ~reps:(perf_reps ()) ~ops_per_rep:n
       ~events:(fun () -> Engine.events_processed e)
       workload)

(* bloom-query: membership probes on a G-FIB-sized plain filter, mixed
   hits and misses.  [name] lets the hotpath suite reuse the same
   steady-state workload under its probe id. *)
let perf_bloom_query ?(name = "bloom-query") () =
  let module Bloom = Lazyctrl_bloom.Bloom in
  let n_probes = perf_scale 400_000 in
  let bloom = Bloom.create ~bits:(128 * 1024) () in
  for i = 0 to 8191 do
    Bloom.add bloom (i * 7919)
  done;
  let keys =
    let rng = Lazyctrl_util.Prng.create 23 in
    (* ~half present, half absent *)
    Array.init 65_536 (fun _ ->
        if Lazyctrl_util.Prng.int rng 2 = 0 then
          Lazyctrl_util.Prng.int rng 8192 * 7919
        else 1 + Lazyctrl_util.Prng.int rng 100_000_000)
  in
  let mask = Array.length keys - 1 in
  let sink = ref 0 in
  let workload () =
    for i = 0 to n_probes - 1 do
      if Bloom.mem bloom (Array.unsafe_get keys (i land mask)) then incr sink
    done
  in
  perf_record
    (Perf.Measure.run ~name ~reps:(perf_reps ()) ~ops_per_rep:n_probes
       workload);
  ignore !sink

(* lfib-lookup: the switch's local fast path — MAC lookups against a
   64-host L-FIB, mixed local and remote destinations. *)
let perf_lfib_lookup ?(name = "lfib-lookup") () =
  let module Lfib = Lazyctrl_switch.Lfib in
  let n_lookups = perf_scale 400_000 in
  let lfib = Lfib.create () in
  for i = 0 to 63 do
    ignore
      (Lfib.learn lfib
         (Lazyctrl_net.Host.make
            ~id:(Lazyctrl_net.Ids.Host_id.of_int i)
            ~tenant:(Lazyctrl_net.Ids.Tenant_id.of_int 0)))
  done;
  let macs =
    let rng = Lazyctrl_util.Prng.create 29 in
    Array.init 4096 (fun _ ->
        Lazyctrl_net.Mac.of_host_id (Lazyctrl_util.Prng.int rng 128))
  in
  let mask = Array.length macs - 1 in
  let sink = ref 0 in
  let workload () =
    for i = 0 to n_lookups - 1 do
      match Lfib.lookup_mac lfib (Array.unsafe_get macs (i land mask)) with
      | Some _ -> incr sink
      | None -> ()
    done
  in
  perf_record
    (Perf.Measure.run ~name ~reps:(perf_reps ()) ~ops_per_rep:n_lookups
       workload);
  ignore !sink

(* gfib-probe: the intra-group miss path — probe every peer filter of
   an 8-member group for a destination MAC and visit the candidates. *)
let perf_gfib_probe ?(name = "gfib-probe") () =
  let module Gfib = Lazyctrl_switch.Gfib in
  let n_probes = perf_scale 200_000 in
  let gfib = Gfib.create ~bits_per_entry:128 ~expected_hosts_per_switch:64 () in
  for peer = 1 to 8 do
    let keys =
      List.init 64 (fun i ->
          let hid = (peer * 1000) + i in
          {
            Lazyctrl_switch.Proto.mac = Lazyctrl_net.Mac.of_host_id hid;
            ip = Lazyctrl_net.Ipv4.of_host_id hid;
            tenant = Lazyctrl_net.Ids.Tenant_id.of_int 0;
          })
    in
    Gfib.set_peer gfib (Lazyctrl_net.Ids.Switch_id.of_int peer) keys
  done;
  let macs =
    let rng = Lazyctrl_util.Prng.create 31 in
    Array.init 4096 (fun _ ->
        let peer = 1 + Lazyctrl_util.Prng.int rng 8 in
        let i = Lazyctrl_util.Prng.int rng 96 (* 1/3 misses *) in
        Lazyctrl_net.Mac.of_host_id ((peer * 1000) + i))
  in
  let mask = Array.length macs - 1 in
  let sink = ref 0 in
  let workload () =
    for i = 0 to n_probes - 1 do
      let mac = Array.unsafe_get macs (i land mask) in
      sink :=
        !sink + Gfib.iter_candidates_mac gfib mac (fun _ -> ())
    done
  in
  perf_record
    (Perf.Measure.run ~name ~reps:(perf_reps ()) ~ops_per_rep:n_probes
       workload);
  ignore !sink

(* gfib-readvert: the periodic full re-advert — [Gfib.set_peer] with a
   peer's unchanged 27-host list, round-robin over a 13-peer G-FIB, the
   benchmark's group shape.  Host ids stride by 272, as the hosts of one
   switch spread over a 272-switch placement. *)
let perf_gfib_readvert () =
  let module Gfib = Lazyctrl_switch.Gfib in
  let n_peers = 13 in
  let n = perf_scale 200_000 in
  let gfib = Gfib.create ~bits_per_entry:128 ~expected_hosts_per_switch:64 () in
  let peers = Array.init n_peers (fun p -> Lazyctrl_net.Ids.Switch_id.of_int (p + 1)) in
  let lists =
    Array.init n_peers (fun p ->
        List.init 27 (fun i ->
            let hid = (i * 272) + p in
            {
              Lazyctrl_switch.Proto.mac = Lazyctrl_net.Mac.of_host_id hid;
              ip = Lazyctrl_net.Ipv4.of_host_id hid;
              tenant = Lazyctrl_net.Ids.Tenant_id.of_int 0;
            }))
  in
  Array.iteri (fun p keys -> Gfib.set_peer gfib peers.(p) keys) lists;
  let workload () =
    for i = 0 to n - 1 do
      let p = i mod n_peers in
      Gfib.set_peer gfib (Array.unsafe_get peers p) (Array.unsafe_get lists p)
    done
  in
  perf_record
    (Perf.Measure.run ~name:"gfib-readvert" ~reps:(perf_reps ()) ~ops_per_rep:n
       workload)

(* packet-replay: end-to-end — a small lazy-mode network, per-tenant
   traffic, everything from ARP resolution through G-FIB encap to
   delivery.  Ops are delivered packets; events are engine firings.
   [shards]/[domains] give the sharded variant (packet-replay-dN). *)
let replay_scenario ?tracer ?shards ?domains () =
  let module Time = Lazyctrl_sim.Time in
  let module Network = Lazyctrl_core.Network in
  let module Placement = Lazyctrl_topo.Placement in
  let module Topology = Lazyctrl_topo.Topology in
  let packets_per_flow = if !quick then 6 else 12 in
  let topo =
    Placement.generate
      ~rng:(Lazyctrl_util.Prng.create 5)
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
    Network.create ?tracer ?shards ?domains ~mode:Network.Lazy ~topo
      ~horizon:(Time.of_min 5) ()
  in
  Network.bootstrap net ();
  Network.run net ~until:(Time.of_sec 10);
  List.iter
    (fun tenant ->
      match Topology.tenant_hosts topo tenant with
      | first :: rest ->
          List.iter
            (fun (peer : Lazyctrl_net.Host.t) ->
              Network.start_flow net ~src:first.Lazyctrl_net.Host.id
                ~dst:peer.id ~bytes:20_000 ~packets:packets_per_flow)
            rest
      | [] -> ())
    (Topology.tenants topo);
  Network.run net ~until:(Time.of_min 3);
  net

let perf_packet_replay () =
  let module Network = Lazyctrl_core.Network in
  let run_scenario () = replay_scenario () in
  (* The scenario is deterministic: size the op count from a dry run. *)
  let probe = run_scenario () in
  let delivered =
    (Network.switch_stats_sum probe).Lazyctrl_switch.Edge_switch
    .packets_delivered
  in
  let events = ref 0 in
  let workload () =
    let net = run_scenario () in
    events := Lazyctrl_sim.Engine.events_processed (Network.engine net)
  in
  perf_record
    (* The dry sizing run above doubles as the warmup; replay is the
       noisiest target (one rep is a whole scenario, tens of ms), so
       even --quick takes best-of-4. *)
    (Perf.Measure.run ~name:"packet-replay" ~warmup:0
       ~reps:(if !quick then 4 else 5)
       ~ops_per_rep:(max 1 delivered)
       ~events:(fun () -> !events)
       workload)

(* packet-replay-dN: the packet-replay scenario on the network sharded
   by LCG (4 logical switch shards) at 1, 2 and 4 domains.  The logical
   shard count is fixed (4), so all three runs execute the identical
   event schedule — the probe checks their fingerprints are
   byte-identical before timing anything, then reports the d2/d4 rows
   with scaling_efficiency = ops_dN / (N * ops_d1) for the Compare
   scaling gate (floor 2.5x at 4 domains, gated only on hosts with
   enough cores).  Exchange statistics from the verification runs are
   emitted via --exchange-json for the CI artifact. *)
let shard_replay_scenario ~domains () = replay_scenario ~shards:4 ~domains ()

let exchange_stats : (int * Lazyctrl_sim.Shard_engine.stats) list ref = ref []

let perf_shard_replay () =
  let module Network = Lazyctrl_core.Network in
  let domain_counts = [ 1; 2; 4 ] in
  (* One verification run per domain count: fingerprints must agree
     byte-for-byte before throughput means anything.  These runs also
     double as warmup, size the op count, and feed --exchange-json. *)
  let verify =
    List.map
      (fun domains ->
        let net = shard_replay_scenario ~domains () in
        let fp = Network.fingerprint net in
        let delivered =
          (Network.switch_stats_sum net).Lazyctrl_switch.Edge_switch
            .packets_delivered
        in
        exchange_stats :=
          (domains, (Network.stats net).Network.engine) :: !exchange_stats;
        Network.shutdown net;
        (domains, fp, delivered))
      domain_counts
  in
  let _, fp1, delivered = List.hd verify in
  List.iter
    (fun (domains, fp, _) ->
      if not (String.equal fp fp1) then begin
        Printf.eprintf
          "packet-replay-d%d: fingerprint diverges from the 1-domain run\n"
          domains;
        exit 1
      end)
    verify;
  Printf.printf
    "fingerprints byte-identical across %s domains (%d packets delivered)\n"
    (String.concat "/" (List.map string_of_int domain_counts))
    delivered;
  let measure domains =
    let events = ref 0 in
    Perf.Measure.run
      ~name:(Printf.sprintf "packet-replay-d%d" domains)
      ~warmup:0 ~domains
      ~reps:(if !quick then 4 else 5)
      ~ops_per_rep:(max 1 delivered)
      ~events:(fun () -> !events)
      (fun () ->
        let net = shard_replay_scenario ~domains () in
        events := (Network.stats net).Network.engine.Lazyctrl_sim.Shard_engine.events;
        Network.shutdown net)
  in
  let d1 = measure 1 in
  perf_record d1;
  List.iter
    (fun domains ->
      let r = measure domains in
      let efficiency =
        r.Perf.Measure.ops_per_sec
        /. (float_of_int domains *. d1.Perf.Measure.ops_per_sec)
      in
      perf_record (Perf.Measure.with_scaling r ~efficiency))
    (List.filter (fun d -> d > 1) domain_counts)

let write_exchange_json path =
  let module SE = Lazyctrl_sim.Shard_engine in
  let module J = Lazyctrl_util.Json in
  let entry (domains, (st : SE.stats)) =
    J.Obj
      [
        ("domains", J.int domains);
        ("shards", J.int st.SE.shards);
        ("windows", J.int st.SE.windows);
        ("messages", J.int st.SE.messages);
        ("max_window_batch", J.int st.SE.max_window_batch);
        ("events", J.int st.SE.events);
        ( "pair_counts",
          J.List
            (Array.to_list
               (Array.map
                  (fun row -> J.List (Array.to_list (Array.map J.int row)))
                  st.SE.pair_counts)) );
      ]
  in
  let doc =
    J.Obj
      [
        ("suite", J.Str "lazyctrl-shard-exchange");
        ("host_cores", J.int (Perf.Report.detected_host_cores ()));
        ("runs", J.List (List.map entry (List.rev !exchange_stats)));
      ]
  in
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (J.to_string doc));
  Printf.printf "wrote %s (%d runs)\n" path (List.length !exchange_stats)

(* trace-overhead-on: the packet-replay scenario with an enabled tracer
   recording every decision point, reported as a ratio over
   packet-replay's own row — the tracer-disabled run, whose guard cost
   every untraced run pays.  Run on its own, the target measures
   packet-replay first. *)
let perf_trace_overhead () =
  let module Tracer = Lazyctrl_trace.Tracer in
  let module Network = Lazyctrl_core.Network in
  let replay_result () =
    List.find_opt
      (fun (r : Perf.Measure.result) -> String.equal r.name "packet-replay")
      !perf_results
  in
  if Option.is_none (replay_result ()) then perf_packet_replay ();
  let off = Option.get (replay_result ()) in
  let probe = replay_scenario () in
  let delivered =
    (Network.switch_stats_sum probe).Lazyctrl_switch.Edge_switch
    .packets_delivered
  in
  let recorded = ref 0 in
  (* One tracer across reps: the ring allocation is a per-process cost,
     not a per-run one, and the counters are cumulative anyway. *)
  let tracer = Tracer.create () in
  let on =
    Perf.Measure.run ~name:"trace-overhead-on" ~warmup:0
      ~reps:(if !quick then 4 else 5)
      ~ops_per_rep:(max 1 delivered)
      (fun () ->
        let before = Tracer.recorded tracer in
        ignore (replay_scenario ~tracer ());
        recorded := Tracer.recorded tracer - before)
  in
  perf_record on;
  Printf.printf
    "tracing enabled costs %.1f%% over disabled (%d events recorded/run)\n"
    (100. *. ((off.Perf.Measure.ops_per_sec /. on.Perf.Measure.ops_per_sec) -. 1.))
    !recorded

(* cluster-migration: end-to-end controller-cluster failover — a
   3-member cluster absorbs a controller kill mid-run (slave-spoke
   probes, adoption, Rehome handshake, miss-buffer drain, EASM
   failback) while tenant flows keep flowing.  One rep is the whole
   seeded scenario; ops are delivered packets, so the rate prices the
   coordination overhead against useful data-plane work. *)
let perf_cluster_migration () =
  let module Runner = Lazyctrl_chaos.Runner in
  let module Scenario = Lazyctrl_chaos.Scenario in
  let module Fault = Lazyctrl_chaos.Fault in
  let cfg =
    let base = Runner.cluster_config in
    {
      base with
      Runner.loss = 0.0;
      dup = 0.0;
      n_switches = (if !quick then 10 else 16);
      spec =
        {
          base.Runner.spec with
          Scenario.kinds = [ Fault.Controller_kill ];
          n_faults = 1;
        };
    }
  in
  (* The scenario is deterministic: size the op count from a dry run,
     which doubles as the warmup. *)
  let probe = Runner.run cfg in
  let ops =
    max 1
      probe.Runner.switch_stats.Lazyctrl_switch.Edge_switch.packets_delivered
  in
  perf_record
    (Perf.Measure.run ~name:"cluster-migration" ~warmup:0
       ~reps:(if !quick then 3 else 4)
       ~ops_per_rep:ops
       (fun () -> ignore (Runner.run cfg)))

(* --- hot-path probes -------------------------------------------------------- *)

(* The dynamic half of the H00x hot-path lint (DESIGN.md §10): one probe
   per hot entry declared in lib/analysis/hotspec.ml, measured in minor
   words per operation and gated against the committed HOTPATH_budget by
   `lazyctrl_lint --hotpath-report --measured` (`make lint-hotpath`).
   Workloads are steady-state: shared structures are built outside the
   measured closure and the warmup rep absorbs growth, so the counters
   see only the per-operation cost the static rules reason about. *)

(* Statically allocated callback for hp-engine-step: scheduling it
   builds no closure, so the probe isolates the engine's own loop. *)
let hp_nop () = ()

(* hp-engine-step: schedule-and-drain through the bare event loop
   (Engine.step).  One engine across reps — slot and heap growth happen
   during the warmup rep and the measured reps run at steady state. *)
let perf_hp_engine_step () =
  let module Engine = Lazyctrl_sim.Engine in
  let module Time = Lazyctrl_sim.Time in
  let n = perf_scale 200_000 in
  let delays =
    let rng = Lazyctrl_util.Prng.create 37 in
    Array.init n (fun _ -> Time.of_ns (Lazyctrl_util.Prng.int rng 1_000_000))
  in
  let e = Engine.create () in
  let drained = ref 0 in
  let workload () =
    for i = 0 to n - 1 do
      ignore (Engine.schedule e ~after:(Array.unsafe_get delays i) hp_nop)
    done;
    let before = Engine.events_processed e in
    while Engine.step e do () done;
    drained := Engine.events_processed e - before
  in
  perf_record
    (Perf.Measure.run ~name:"hp-engine-step" ~reps:(perf_reps ()) ~ops_per_rep:n
       ~events:(fun () -> !drained)
       workload)

(* hp-edge-datapath: per-delivered-packet cost of the warm lazy
   datapath (Edge_switch.handle_from_host/handle_underlay and everything
   they reach).  One bootstrapped network; each rep starts the same
   tenant flow set at the current simulated time and runs three more
   minutes, so ARP resolution, learning and grouping are amortized away
   by the sizing run and the measured reps ride the L-FIB/G-FIB fast
   path.  This probe deliberately carries the allowlisted H001 residue
   (packet values, flow-table hits) — its budget in HOTPATH_budget is
   nonzero and documents that cost. *)
let perf_hp_edge_datapath () =
  let module Time = Lazyctrl_sim.Time in
  let module Network = Lazyctrl_core.Network in
  let module Placement = Lazyctrl_topo.Placement in
  let module Topology = Lazyctrl_topo.Topology in
  let packets_per_flow = if !quick then 6 else 12 in
  let topo =
    Placement.generate
      ~rng:(Lazyctrl_util.Prng.create 5)
      {
        Placement.n_switches = 8;
        n_tenants = 4;
        tenant_size_min = 6;
        tenant_size_max = 10;
        racks_per_tenant = 2;
        stray_fraction = 0.1;
      }
  in
  let net = Network.create ~mode:Network.Lazy ~topo ~horizon:(Time.of_min 5) () in
  Network.bootstrap net ();
  let cursor = ref (Time.of_sec 10) in
  Network.run net ~until:!cursor;
  let delivered () =
    (Network.switch_stats_sum net).Lazyctrl_switch.Edge_switch.packets_delivered
  in
  let run_rep () =
    List.iter
      (fun tenant ->
        match Topology.tenant_hosts topo tenant with
        | first :: rest ->
            List.iter
              (fun (peer : Lazyctrl_net.Host.t) ->
                Network.start_flow net ~src:first.Lazyctrl_net.Host.id
                  ~dst:peer.id ~bytes:20_000 ~packets:packets_per_flow)
              rest
        | [] -> ())
      (Topology.tenants topo);
    cursor := Time.add !cursor (Time.of_min 3);
    Network.run net ~until:!cursor
  in
  (* One sizing rep warms the datapath and fixes the deterministic
     per-rep op count; Measure's own warmup then re-touches the caches. *)
  let before = delivered () in
  run_rep ();
  let ops = max 1 (delivered () - before) in
  let events = ref 0 in
  perf_record
    (Perf.Measure.run ~name:"hp-edge-datapath"
       ~reps:(if !quick then 3 else 5)
       ~ops_per_rep:ops
       ~events:(fun () -> !events)
       (fun () ->
         run_rep ();
         events := Lazyctrl_sim.Engine.events_processed (Network.engine net)))

(* --- wire codec probes ------------------------------------------------------ *)

(* A representative control-channel message mix for the codec probes
   (DESIGN.md §13), built once outside the measured closures: the
   miss-path round trip (buffered punt, Flow_mod, Buffer_out), a full
   unbuffered punt, and two Proto extension shapes. *)
let wire_mix () =
  let module Ids = Lazyctrl_net.Ids in
  let module Packet = Lazyctrl_net.Packet in
  let module Message = Lazyctrl_openflow.Message in
  let module Proto = Lazyctrl_switch.Proto in
  let host i =
    Lazyctrl_net.Host.make ~id:(Ids.Host_id.of_int i)
      ~tenant:(Ids.Tenant_id.of_int 0)
  in
  let pkt = Packet.data ~src:(host 1) ~dst:(host 2) ~length:1400 () in
  let eth = Packet.eth_of pkt in
  let actions = [ Lazyctrl_openflow.Action.Deliver (Ids.Host_id.of_int 2) ] in
  let keys =
    List.init 8 (fun i ->
        {
          Proto.mac = Lazyctrl_net.Mac.of_host_id (100 + i);
          ip = Lazyctrl_net.Ipv4.of_host_id (100 + i);
          tenant = Ids.Tenant_id.of_int 0;
        })
  in
  [|
    Message.Packet_in { packet = pkt; reason = Message.No_match; buffer_id = 7 };
    Message.Flow_mod
      (Message.Add
         {
           Lazyctrl_openflow.Flow_table.priority = 10;
           ofmatch = Lazyctrl_openflow.Ofmatch.of_eth eth;
           actions;
           idle_timeout = Some (Lazyctrl_sim.Time.of_sec 60);
           hard_timeout = None;
           cookie = 42;
         });
    Message.Buffer_out { buffer_id = 7; actions };
    Message.Packet_in
      { packet = pkt; reason = Message.No_match; buffer_id = Message.no_buffer };
    Message.Extension (Proto.Keepalive { from = Ids.Switch_id.of_int 3 });
    Message.Extension
      (Proto.Lfib_advert
         { origin = Ids.Switch_id.of_int 3; added = keys; removed = []; full = false });
  |]

let perf_wire_encode () =
  let module Wire = Lazyctrl_wire.Wire in
  let module Proto = Lazyctrl_switch.Proto in
  let n = perf_scale 400_000 in
  let mix = wire_mix () in
  let k = Array.length mix in
  let sink = ref 0 in
  let workload () =
    for i = 0 to n - 1 do
      sink :=
        !sink
        + Bytes.length (Wire.encode Proto.wire_ext (Array.unsafe_get mix (i mod k)))
    done
  in
  perf_record
    (Perf.Measure.run ~name:"wire-encode" ~reps:(perf_reps ()) ~ops_per_rep:n
       workload);
  ignore !sink

(* [hot_only] restricts the mix to the two frames the H00x spec declares
   hot — the buffered Packet_in and the Flow_mod — which is what the
   hp-wire-decode budget in HOTPATH_budget prices. *)
let perf_wire_decode ?(name = "wire-decode") ?(hot_only = false) () =
  let module Wire = Lazyctrl_wire.Wire in
  let module Proto = Lazyctrl_switch.Proto in
  let module Message = Lazyctrl_openflow.Message in
  let n = perf_scale 400_000 in
  let mix = wire_mix () in
  let mix = if hot_only then Array.sub mix 0 2 else mix in
  let frames = Array.map (Wire.encode Proto.wire_ext) mix in
  let k = Array.length frames in
  let sink = ref 0 in
  let workload () =
    for i = 0 to n - 1 do
      match Wire.decode Proto.wire_ext (Array.unsafe_get frames (i mod k)) with
      | Message.Packet_in _ | Message.Flow_mod _ -> incr sink
      | _ -> ()
    done
  in
  perf_record
    (Perf.Measure.run ~name ~reps:(perf_reps ()) ~ops_per_rep:n workload);
  ignore !sink

(* buffered-punt: the switch-side miss cycle — park the packet, encode
   and decode the truncated punt, release the slot on the Buffer_out.
   Ops are punts; the encode/decode pair makes the probe price exactly
   what the control channel carries per miss. *)
let perf_buffered_punt () =
  let module Wire = Lazyctrl_wire.Wire in
  let module Proto = Lazyctrl_switch.Proto in
  let module Message = Lazyctrl_openflow.Message in
  let module Buffer_pool = Lazyctrl_openflow.Buffer_pool in
  let module Time = Lazyctrl_sim.Time in
  let n = perf_scale 100_000 in
  let mix = wire_mix () in
  let pkt =
    match mix.(0) with
    | Message.Packet_in { packet; _ } -> packet
    | _ -> assert false
  in
  let pool = Buffer_pool.create ~ttl:(Time.of_sec 1) () in
  let now = Time.of_ns 0 in
  let sink = ref 0 in
  let workload () =
    for _ = 1 to n do
      match Buffer_pool.store pool ~now pkt with
      | None -> ()
      | Some id ->
          let frame =
            Wire.encode Proto.wire_ext
              (Message.Packet_in
                 { packet = pkt; reason = Message.No_match; buffer_id = id })
          in
          (match Wire.decode Proto.wire_ext frame with
          | Message.Packet_in { buffer_id; _ } -> (
              match Buffer_pool.take pool ~now buffer_id with
              | Some _ -> incr sink
              | None -> ())
          | _ -> ())
    done
  in
  perf_record
    (Perf.Measure.run ~name:"buffered-punt" ~reps:(perf_reps ()) ~ops_per_rep:n
       workload);
  ignore !sink

let t_wire_codec () =
  section "Perf: binary wire codec (encode / decode / buffered punt)";
  Printf.printf "%-16s %14s %12s %12s\n" "target" "ops/sec" "ns/op" "B/op";
  perf_wire_encode ();
  perf_wire_decode ();
  perf_buffered_punt ()

let t_hotpath () =
  section
    "Hot-path probes (minor words/op; gated against HOTPATH_budget by `make \
     lint-hotpath`)";
  Printf.printf "%-16s %14s %12s %12s %9s\n" "target" "ops/sec" "ns/op" "B/op"
    "w/op";
  perf_hp_engine_step ();
  perf_bloom_query ~name:"hp-bloom-query" ();
  perf_lfib_lookup ~name:"hp-lfib-lookup" ();
  perf_gfib_probe ~name:"hp-gfib-probe" ();
  perf_wire_decode ~name:"hp-wire-decode" ~hot_only:true ();
  perf_hp_edge_datapath ()

let t_perf () =
  section "Perf regression targets (lib/perf; --json FILE for the report)";
  Printf.printf "%-16s %14s %12s %12s\n" "target" "ops/sec" "ns/op" "B/op";
  perf_engine_event ();
  perf_engine_mix ();
  perf_bloom_query ();
  perf_lfib_lookup ();
  perf_gfib_probe ();
  perf_gfib_readvert ();
  perf_wire_encode ();
  perf_wire_decode ();
  perf_buffered_punt ();
  perf_packet_replay ();
  perf_shard_replay ();
  perf_cluster_migration ();
  perf_trace_overhead ()

(* Just the end-to-end packet-replay perf target: the cheap smoke entry
   the test suite drives to validate the bench -> JSON -> compare
   pipeline without paying for the full perf sweep. *)
let t_perf_replay () =
  section "Perf: packet-replay only (pipeline smoke target)";
  Printf.printf "%-16s %14s %12s %12s\n" "target" "ops/sec" "ns/op" "B/op";
  perf_packet_replay ()

(* Just the sharded-engine replay probes: the multicore CI leg runs
   this with --exchange-json to produce the artifact without paying
   for the full perf sweep. *)
let t_shard_replay () =
  section "Perf: domain-parallel packet replay (packet-replay-d{1,2,4})";
  Printf.printf "%-16s %14s %12s %12s\n" "target" "ops/sec" "ns/op" "B/op";
  perf_shard_replay ()

(* Just the cluster-migration perf target, runnable on its own. *)
let t_cluster_migration () =
  section "Perf: controller-cluster failover scenario (cluster-migration)";
  Printf.printf "%-16s %14s %12s %12s\n" "target" "ops/sec" "ns/op" "B/op";
  perf_cluster_migration ()

(* Just the tracer-overhead target, runnable on its own. *)
let t_trace_overhead () =
  section "Perf: flight-recorder overhead (packet-replay vs enabled tracer)";
  Printf.printf "%-16s %14s %12s %12s\n" "target" "ops/sec" "ns/op" "B/op";
  perf_trace_overhead ()

(* --- compare mode ----------------------------------------------------------- *)

let run_compare baseline_path current_path =
  let load path =
    match Perf.Report.load path with
    | Ok results -> results
    | Error msg ->
        Printf.eprintf "compare: %s\n" msg;
        exit 2
  in
  let baseline = load baseline_path in
  let current =
    match Perf.Report.load_doc current_path with
    | Ok doc -> doc
    | Error msg ->
        Printf.eprintf "compare: %s\n" msg;
        exit 2
  in
  (* host_cores comes from the current run: the scaling gate judges the
     machine that produced the numbers under test, not the baseline's. *)
  let outcome =
    Perf.Compare.diff ~host_cores:current.Perf.Report.host_cores ~baseline
      ~current:current.Perf.Report.results ()
  in
  Format.printf "%a" Perf.Compare.pp outcome;
  exit (if Perf.Compare.passed outcome then 0 else 1)

(* --- driver ----------------------------------------------------------------- *)

let targets =
  [
    ("perf", t_perf);
    ("wire-codec", t_wire_codec);
    ("hotpath", t_hotpath);
    ("perf-replay", t_perf_replay);
    ("shard-replay", t_shard_replay);
    ("cluster-migration", t_cluster_migration);
    ("trace-overhead", t_trace_overhead);
  ]

let write_json_report path =
  Perf.Report.save path (List.rev !perf_results);
  Printf.printf "wrote %s (%d targets, schema v%d)\n" path
    (List.length !perf_results) Perf.Report.schema_version

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let json_path = ref None in
  let exchange_path = ref None in
  let rec strip_flags acc = function
    | [] -> List.rev acc
    | "--quick" :: rest ->
        quick := true;
        strip_flags acc rest
    | "--json" :: path :: rest ->
        json_path := Some path;
        strip_flags acc rest
    | [ "--json" ] ->
        Printf.eprintf "--json needs a file path\n";
        exit 2
    | "--exchange-json" :: path :: rest ->
        exchange_path := Some path;
        strip_flags acc rest
    | [ "--exchange-json" ] ->
        Printf.eprintf "--exchange-json needs a file path\n";
        exit 2
    | a :: rest -> strip_flags (a :: acc) rest
  in
  let args = strip_flags [] args in
  (match args with
  | [ "--list" ] ->
      List.iter (fun (name, _) -> print_endline name) targets
  | "compare" :: rest -> (
      match rest with
      | [ baseline; current ] -> run_compare baseline current
      | _ ->
          Printf.eprintf "usage: compare BASELINE.json CURRENT.json\n";
          exit 2)
  | [] ->
      print_endline "LazyCtrl measurement suite (all targets; use --list to see them)";
      List.iter (fun (_, f) -> f ()) targets
  | names ->
      List.iter
        (fun name ->
          match List.assoc_opt name targets with
          | Some f -> f ()
          | None ->
              Printf.eprintf "unknown target %S (use --list)\n" name;
              exit 1)
        names);
  (match !exchange_path with
  | Some path when not (List.is_empty !exchange_stats) ->
      write_exchange_json path
  | Some path ->
      Printf.eprintf
        "--exchange-json %s: no sharded targets ran (include \"shard-replay\" \
         or \"perf\")\n"
        path;
      exit 2
  | None -> ());
  match !json_path with
  | Some path when not (List.is_empty !perf_results) -> write_json_report path
  | Some path ->
      Printf.eprintf
        "--json %s: no perf targets ran (include \"perf\" in the target list)\n"
        path;
      exit 2
  | None -> ()
