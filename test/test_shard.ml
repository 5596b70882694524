(* The sharded engine and the sharded network plane.

   Layer 1 (Shard_engine): the window protocol itself — barrier rounds,
   idle-window skipping, the conservative admission rule, and the
   planted cross-shard-ordering fixture pinning the (time, src, seq)
   merge order.

   Layer 2 (Network at shards > 1): the paper-level property behind the
   CI multicore matrix — a seeded scenario produces a byte-identical
   fingerprint at every domain count, across random seeds and topology
   sizes (qcheck), with and without channel loss, and double runs
   reproduce exactly. *)

open Lazyctrl_net
open Lazyctrl_sim
open Lazyctrl_topo
open Lazyctrl_core
open Lazyctrl_controller
module Prng = Lazyctrl_util.Prng

let qtest ?(count = 6) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* --- Domain_pool -------------------------------------------------------- *)

let test_pool_runs_everything () =
  List.iter
    (fun lanes ->
      let pool = Domain_pool.create ~lanes in
      Alcotest.(check int) "pool reports its lanes" lanes
        (Domain_pool.lanes pool);
      let n = 37 in
      let hits = Array.make n 0 in
      Domain_pool.run_all pool
        (Array.init n (fun i () -> hits.(i) <- hits.(i) + 1));
      Domain_pool.shutdown pool;
      Alcotest.(check (array int))
        (Printf.sprintf "every thunk ran once (lanes=%d)" lanes)
        (Array.make n 1) hits)
    [ 1; 2; 4 ]

exception Boom of int

let test_pool_propagates_exception () =
  let pool = Domain_pool.create ~lanes:3 in
  let raised =
    try
      Domain_pool.run_all pool
        (Array.init 8 (fun i () -> if i = 5 then raise (Boom i)));
      None
    with Boom i -> Some i
  in
  Domain_pool.shutdown pool;
  Alcotest.(check (option int)) "exception crossed the barrier" (Some 5) raised;
  (* The pool survives a failed round and still refuses work after
     shutdown. *)
  Alcotest.check_raises "run after shutdown" (Invalid_argument
      "Domain_pool.run_all: pool is shut down") (fun () ->
      Domain_pool.run_all pool (Array.init 4 (fun _ () -> ())))

(* --- Exchange: planted cross-shard-ordering regression fixture ---------- *)

(* Three sources post messages that all arrive at the same instant, in an
   adversarial wall order (src 2 first, then 0, then 1, interleaved).
   The only correct drain order is (time, src, seq); a merge keyed by
   post order, arrival order alone, or destination would fail this. *)
let test_exchange_ordering_fixture () =
  let ex = Exchange.create ~shards:3 in
  Alcotest.(check int) "exchange reports its shards" 3 (Exchange.shards ex);
  let log = ref [] in
  let record tag () = log := tag :: !log in
  let at = 1_000 in
  Exchange.post ex ~src:2 ~dst:0 ~time_ns:at (record "s2.0");
  Exchange.post ex ~src:0 ~dst:0 ~time_ns:at (record "s0.0");
  Exchange.post ex ~src:2 ~dst:0 ~time_ns:at (record "s2.1");
  Exchange.post ex ~src:1 ~dst:0 ~time_ns:at (record "s1.0");
  Exchange.post ex ~src:0 ~dst:0 ~time_ns:at (record "s0.1");
  (* An earlier arrival posted last must still drain first. *)
  Exchange.post ex ~src:1 ~dst:0 ~time_ns:(at - 1) (record "early");
  Exchange.drain ex ~into:(fun ~dst:_ ~time_ns:_ f -> f ());
  Alcotest.(check (list string))
    "drained in (time, src, seq) order"
    [ "early"; "s0.0"; "s0.1"; "s1.0"; "s2.0"; "s2.1" ]
    (List.rev !log);
  Alcotest.(check int) "all messages counted" 6 (Exchange.messages ex);
  Alcotest.(check int) "max batch" 6 (Exchange.max_batch ex);
  let pairs = Exchange.pair_counts ex in
  Alcotest.(check int) "pair 2->0" 2 pairs.(2).(0);
  Alcotest.(check int) "nothing pending after drain" 0 (Exchange.pending ex)

(* --- Shard_engine ------------------------------------------------------- *)

let test_windowed_ping_pong () =
  (* Two shards bounce a counter through the exchange; each hop adds one
     300us "link latency" over a 100us window.  The final count and the
     shard clocks pin the window protocol end-to-end. *)
  let t = Shard_engine.create ~domains:1 ~shards:2 ~window:(Time.of_us 100) () in
  let hops = ref 0 in
  let rec hop ~me ~peer () =
    incr hops;
    let at = Time.add (Engine.now (Shard_engine.engine t me)) (Time.of_us 300) in
    if !hops < 10 then Shard_engine.post t ~src:me ~dst:peer ~at (hop ~me:peer ~peer:me)
  in
  ignore
    (Engine.schedule_at (Shard_engine.engine t 0) ~at:(Time.of_us 50)
       (hop ~me:0 ~peer:1));
  Shard_engine.run t ~until:(Time.of_ms 10);
  Alcotest.(check int) "all hops fired" 10 !hops;
  Alcotest.(check int) "clocks in lockstep at the horizon"
    (Time.to_ns (Time.of_ms 10))
    (Time.to_ns (Shard_engine.now t));
  let st = Shard_engine.stats t in
  Alcotest.(check int) "every hop crossed the exchange" 9 st.Shard_engine.messages;
  (* 10 hops spaced 300us over a 100us grid: busy windows stay near the
     event count instead of the 100-window span of the horizon. *)
  Alcotest.(check bool) "idle windows skipped" true (st.Shard_engine.windows <= 12);
  Shard_engine.shutdown t

let test_conservative_violation_raises () =
  let t = Shard_engine.create ~domains:1 ~shards:2 ~window:(Time.of_us 100) () in
  ignore
    (Engine.schedule_at (Shard_engine.engine t 0) ~at:(Time.of_us 10)
       (fun () ->
         (* Arrival inside the current window (ends at 100us): illegal. *)
         Shard_engine.post t ~src:0 ~dst:1 ~at:(Time.of_us 60) (fun () -> ())));
  Alcotest.(check bool) "undercutting post raises" true
    (try
       Shard_engine.run t ~until:(Time.of_ms 1);
       false
     with Shard_engine.Conservative_violation _ -> true);
  Shard_engine.shutdown t

let test_multidomain_engine_equivalence () =
  (* Same ping-pong workload at domains 1 and 2: identical event counts,
     messages and windows. *)
  let run ~domains =
    (* One log buffer per shard: delivery callbacks run on the owning
       shard's domain, so a shared buffer would race at domains > 1. *)
    let t = Shard_engine.create ~domains ~shards:4 ~window:(Time.of_us 100) () in
    let logs = Array.init 4 (fun _ -> Buffer.create 64) in
    for s = 0 to 3 do
      ignore
        (Engine.schedule_at (Shard_engine.engine t s)
           ~at:(Time.of_us (10 + s))
           (fun () ->
             let dst = (s + 1) mod 4 in
             let at =
               Time.add (Engine.now (Shard_engine.engine t s)) (Time.of_us 250)
             in
             Shard_engine.post t ~src:s ~dst ~at (fun () ->
                 Buffer.add_string logs.(dst)
                   (Printf.sprintf "%d->%d@%d;" s dst (Time.to_ns at)))))
    done;
    Shard_engine.run t ~until:(Time.of_ms 1);
    let st = Shard_engine.stats t in
    Shard_engine.shutdown t;
    ( String.concat "|" (Array.to_list (Array.map Buffer.contents logs)),
      st.Shard_engine.events,
      st.Shard_engine.messages )
  in
  let l1, e1, m1 = run ~domains:1 in
  let l2, e2, m2 = run ~domains:2 in
  Alcotest.(check string) "same delivery log" l1 l2;
  Alcotest.(check int) "same events" e1 e2;
  Alcotest.(check int) "same messages" m1 m2

(* --- Sharded network determinism ----------------------------------------- *)

let relaxed_config =
  { Controller.default_config with Controller.group_size_limit = 3 }

(* [lossy] puts 2% uniform loss on every control and peer channel before
   the first run, so the per-channel loss sub-streams are exercised
   across shards. *)
let scenario ?(domains = 1) ?(n_switches = 10) ?(lossy = false) ~seed () =
  let topo =
    Placement.generate ~rng:(Prng.create seed)
      {
        Placement.n_switches;
        n_tenants = 4;
        tenant_size_min = 4;
        tenant_size_max = 8;
        racks_per_tenant = 2;
        stray_fraction = 0.1;
      }
  in
  let net =
    Network.create ~controller_config:relaxed_config ~shards:4 ~domains
      ~mode:Network.Lazy ~topo ~horizon:(Time.of_min 10) ()
  in
  if lossy then begin
    let loss = Some (Lazyctrl_openflow.Channel.uniform_loss 0.02) in
    Network.set_control_loss net loss;
    Network.set_peer_loss net loss
  end;
  Network.bootstrap net ();
  Network.run net ~until:(Time.of_sec 5);
  List.iter
    (fun tenant ->
      match Topology.tenant_hosts topo tenant with
      | first :: rest ->
          List.iter
            (fun (peer : Host.t) ->
              Network.start_flow net ~src:first.Host.id ~dst:peer.id
                ~bytes:12_000 ~packets:5)
            rest
      | [] -> ())
    (Topology.tenants topo);
  Network.run net ~until:(Time.of_sec 45);
  (* Chaos across the shard boundary: kill a switch mid-run; the
     controller's echo monitor reacts from its own shard. *)
  Network.fail_switch net (Ids.Switch_id.of_int 2);
  Network.run net ~until:(Time.of_min 2);
  Network.repair_switch net (Ids.Switch_id.of_int 2);
  Network.run net ~until:(Time.of_min 3);
  let fp = Network.fingerprint net in
  let st = Network.stats net in
  let violations = (Network.reliability_stats net).Lazyctrl_openflow.Reliable.violations in
  Network.shutdown net;
  (fp, st, violations)

let test_scenario_is_nontrivial () =
  let fp, st, _ = scenario ~seed:11 () in
  Alcotest.(check bool) "fingerprint non-empty" true (String.length fp > 400);
  Alcotest.(check bool) "flows delivered" true (st.Network.flows_delivered > 0);
  Alcotest.(check bool)
    "every started flow was delivered" true
    (st.Network.flows_delivered = st.Network.flows_started);
  Alcotest.(check bool)
    "cross-shard traffic happened" true
    (st.Network.engine.Shard_engine.messages > 0)

let test_double_run_identical () =
  let fp1, _, _ = scenario ~seed:11 () in
  let fp2, _, _ = scenario ~seed:11 () in
  Alcotest.(check string) "same seed, byte-identical" fp1 fp2;
  let fp3, _, _ = scenario ~seed:12 () in
  Alcotest.(check bool) "different seed differs" false (String.equal fp1 fp3)

let check_domain_counts ?lossy () =
  let fp1, _, v1 = scenario ?lossy ~seed:11 ~domains:1 () in
  Alcotest.(check int) "d1: no reliability violations" 0 v1;
  List.iter
    (fun domains ->
      let fpn, _, vn = scenario ?lossy ~seed:11 ~domains () in
      Alcotest.(check string)
        (Printf.sprintf "d1 vs d%d byte-identical" domains)
        fp1 fpn;
      Alcotest.(check int)
        (Printf.sprintf "d%d: no reliability violations" domains)
        0 vn)
    [ 2; 4 ]

let test_domain_counts_identical () = check_domain_counts ()

(* The loss draws come from per-channel sub-streams keyed by channel
   name, so they must not depend on which domain runs a shard. *)
let test_lossy_domain_counts_identical () =
  let fp, _, _ = scenario ~lossy:true ~seed:11 () in
  let clean, _, _ = scenario ~seed:11 () in
  Alcotest.(check bool) "loss changes the run" false (String.equal fp clean);
  check_domain_counts ~lossy:true ()

let test_env_domains_default () =
  (* Whatever LAZYCTRL_DOMAINS says, it parses to a sane lane count and
     the explicit argument overrides it; an unsharded network stays on
     one domain. *)
  let d = Shard_engine.default_domains () in
  Alcotest.(check bool) "default domain count sane" true (d >= 1);
  let topo =
    Placement.generate ~rng:(Prng.create 3)
      {
        Placement.n_switches = 6;
        n_tenants = 2;
        tenant_size_min = 4;
        tenant_size_max = 6;
        racks_per_tenant = 2;
        stray_fraction = 0.0;
      }
  in
  let create ?shards ?domains mode =
    Network.create ?shards ?domains ~mode ~topo ~horizon:(Time.of_min 1) ()
  in
  let net = create ~shards:4 ~domains:2 Network.Lazy in
  Alcotest.(check int) "explicit domains win" 2 (Network.domains net);
  Alcotest.(check int) "logical shards fixed at 4+1" 4 (Network.switch_shards net);
  List.iter
    (fun sw ->
      Alcotest.(check bool) "every switch on a switch shard" true
        (Network.shard_of net sw < 4))
    (Topology.switches topo);
  Network.shutdown net;
  let one = create Network.Lazy in
  Alcotest.(check int) "one shard by default" 1 (Network.switch_shards one);
  Alcotest.(check int) "one shard runs on one domain" 1 (Network.domains one);
  Alcotest.check_raises "the OpenFlow plane stays on one shard"
    (Invalid_argument "Network.create: the OpenFlow plane runs on one shard")
    (fun () -> ignore (create ~shards:4 Network.Openflow))

let gen_case =
  let open QCheck2.Gen in
  let* seed = int_range 1 500 in
  let* n_switches = int_range 6 14 in
  let* domains = int_range 2 4 in
  return (seed, n_switches, domains)

let prop_domain_count_invariance (seed, n_switches, domains) =
  let fp1, _, _ = scenario ~seed ~n_switches ~domains:1 () in
  let fpn, _, _ = scenario ~seed ~n_switches ~domains () in
  String.equal fp1 fpn

let () =
  Alcotest.run "shard"
    [
      ( "domain-pool",
        [
          Alcotest.test_case "runs every thunk" `Quick test_pool_runs_everything;
          Alcotest.test_case "propagates exceptions" `Quick
            test_pool_propagates_exception;
        ] );
      ( "exchange",
        [
          Alcotest.test_case "planted ordering fixture" `Quick
            test_exchange_ordering_fixture;
        ] );
      ( "shard-engine",
        [
          Alcotest.test_case "windowed ping-pong" `Quick test_windowed_ping_pong;
          Alcotest.test_case "conservative violation raises" `Quick
            test_conservative_violation_raises;
          Alcotest.test_case "multi-domain equivalence" `Quick
            test_multidomain_engine_equivalence;
        ] );
      ( "shard-net",
        [
          Alcotest.test_case "scenario non-trivial" `Slow
            test_scenario_is_nontrivial;
          Alcotest.test_case "double run identical" `Slow
            test_double_run_identical;
          Alcotest.test_case "domain counts identical" `Slow
            test_domain_counts_identical;
          Alcotest.test_case "lossy domain counts identical" `Slow
            test_lossy_domain_counts_identical;
          Alcotest.test_case "env default + overrides" `Quick
            test_env_domains_default;
          qtest ~count:4 "qcheck: fingerprint invariant in domains"
            gen_case prop_domain_count_invariance;
        ] );
    ]
