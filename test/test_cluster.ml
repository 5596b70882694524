(* Controller-cluster acceptance: killing 1 of 3 members mid-run loses no
   packets, orphaned groups re-home within the failover window, laziness
   survives the fault, and the whole run is seeded-deterministic. Plus
   direct tests of a 3-controller Network for EASM failback, partition
   reconciliation and the combinations it rejects. *)

open Lazyctrl_net
open Lazyctrl_sim
open Lazyctrl_topo
open Lazyctrl_controller
open Lazyctrl_core
open Lazyctrl_chaos
open Lazyctrl_cluster
module Prng = Lazyctrl_util.Prng
module Reliable = Lazyctrl_openflow.Reliable

let check = Alcotest.check

(* Lossless single-kill scenario: the acceptance configuration. *)
let kill_cfg =
  let base = Runner.cluster_config in
  {
    base with
    Runner.loss = 0.0;
    dup = 0.0;
    spec =
      {
        base.Runner.spec with
        Scenario.kinds = [ Fault.Controller_kill ];
        n_faults = 1;
      };
  }

let no_fault_cfg =
  {
    kill_cfg with
    Runner.spec = { kill_cfg.Runner.spec with Scenario.n_faults = 0 };
  }

let test_kill_one_of_three () =
  let r = Runner.run kill_cfg in
  check Alcotest.int "exactly one fault" 1 (List.length r.Runner.events);
  List.iter
    (fun (e : Fault.event) ->
      check Alcotest.bool "it is a controller kill" true
        (e.kind = Fault.Controller_kill))
    r.Runner.events;
  (* Zero-loss: every flow started under the fault window resolved and
     delivered its first packet; ARP retries outlive the failover window,
     and buffered misses drain to the adopting member. *)
  check Alcotest.int "every flow delivered"
    r.Runner.flows_started r.Runner.flows_delivered;
  check Alcotest.int "no resolution gave up" 0 r.Runner.resolutions_failed;
  check Alcotest.bool "traffic actually flowed" true
    (r.Runner.flows_started > 0);
  (* Exactly-once across every session in the cluster. *)
  check Alcotest.int "no duplicate delivery" 0
    r.Runner.reliability.Reliable.violations;
  (* The orphaned groups re-homed: all invariants, including [homed] and
     [disjoint-ownership], converged within the settle budget. *)
  List.iter
    (fun rep ->
      check Alcotest.bool
        (Printf.sprintf "invariant '%s' holds" rep.Invariant.name)
        true rep.Invariant.ok)
    r.Runner.reports;
  check Alcotest.bool "converged before the deadline" true
    (r.Runner.converged_after <> None);
  (* The failover machinery did fire: the survivors noticed the death,
     probed the orphans over their second spokes, inferred
     Controller_failure, and adopted. *)
  let m = r.Runner.member_stats in
  check Alcotest.bool "death detected" true (m.Member.peer_deaths > 0);
  check Alcotest.bool "revival detected" true (m.Member.peer_revivals > 0);
  check Alcotest.bool "second-spoke evidence inferred controller death" true
    (m.Member.controller_failure_verdicts > 0);
  check Alcotest.bool "orphans adopted" true (m.Member.adoptions > 0)

let test_involvement_stays_lazy () =
  let faulted = Runner.run kill_cfg in
  let calm = Runner.run no_fault_cfg in
  check Alcotest.bool "calm run is lazy" true (calm.Runner.involvement < 0.5);
  (* A single member kill must not meaningfully push traffic onto the
     controllers: the involvement ratio stays within 10 points of the
     no-fault run. *)
  check Alcotest.bool "involvement within 10% of the no-fault run" true
    (Float.abs (faulted.Runner.involvement -. calm.Runner.involvement)
    <= 0.10)

let test_double_run_byte_identical () =
  let r1 = Runner.run kill_cfg in
  let r2 = Runner.run kill_cfg in
  check Alcotest.string "byte-identical fingerprints"
    r1.Runner.fingerprint r2.Runner.fingerprint;
  check Alcotest.bool "fingerprint non-trivial" true
    (String.length r1.Runner.fingerprint > 200);
  let r3 = Runner.run { kill_cfg with Runner.seed = 43 } in
  check Alcotest.bool "different seed, different fingerprint" false
    (String.equal r1.Runner.fingerprint r3.Runner.fingerprint)

(* --- direct 3-controller Network tests ------------------------------------ *)

let quick_controller_config =
  {
    Controller.default_config with
    Controller.group_size_limit = 4;
    sync_period = Time.of_sec 10;
    keepalive_period = Time.of_sec 2;
    echo_period = Time.of_sec 5;
    echo_timeout = Time.of_sec 12;
    daemon_period = Time.of_sec 5;
    incremental_updates = false;
    reliable_state = true;
  }

let make_topo seed =
  Placement.generate ~rng:(Prng.create seed)
    {
      Placement.n_switches = 16;
      n_tenants = 6;
      tenant_size_min = 8;
      tenant_size_max = 16;
      racks_per_tenant = 3;
      stray_fraction = 0.05;
    }

let make_plane ~seed =
  let plane =
    Network.create
      ~params:(Params.with_seed seed Params.default)
      ~controller_config:quick_controller_config ~controllers:3
      ~mode:Network.Lazy ~topo:(make_topo seed) ~horizon:(Time.of_min 10) ()
  in
  Network.bootstrap plane ();
  plane

let owned_counts plane =
  List.map (fun k -> List.length (Member.owned (Network.member plane k))) [ 0; 1; 2 ]

let run_to plane t = Network.run plane ~until:t

(* Kill a member, let the survivors adopt, revive it, and check EASM hands
   groups back: after the failback no alive member is starved while
   another exceeds it by the migration gap. *)
let test_easm_failback () =
  let plane = make_plane ~seed:5 in
  run_to plane (Time.of_sec 20);
  let before = owned_counts plane in
  check Alcotest.bool "bootstrap spreads groups over all members" true
    (List.for_all (fun c -> c > 0) before);
  Network.kill_controller plane 1;
  run_to plane (Time.of_sec 60);
  check Alcotest.bool "dead member reports stopped" false
    (Member.is_running (Network.member plane 1));
  check Alcotest.int "dead member owns nothing" 0
    (List.length (Member.owned (Network.member plane 1)));
  let survivors =
    List.length (Member.owned (Network.member plane 0))
    + List.length (Member.owned (Network.member plane 2))
  in
  check Alcotest.int "survivors own everything"
    (List.fold_left ( + ) 0 before) survivors;
  Network.revive_controller plane 1;
  check Alcotest.bool "revived member reports running" true
    (Member.is_running (Network.member plane 1));
  run_to plane (Time.of_min 4);
  let after = owned_counts plane in
  check Alcotest.int "nothing lost in the shuffle"
    (List.fold_left ( + ) 0 before)
    (List.fold_left ( + ) 0 after);
  let mx = List.fold_left max 0 after and mn = List.fold_left min 99 after in
  check Alcotest.bool "EASM rebalanced within the migration gap" true
    (mx - mn <= 2);
  check Alcotest.bool "handoffs were offered" true
    ((Network.member_stats_sum plane).Member.handoffs_offered > 0)

(* Partition one member off the mesh: its switches keep running on their
   old master, the others adopt what they can see as orphaned; at heal
   time terms reconcile to a single owner per group. *)
let test_partition_heals () =
  let plane = make_plane ~seed:6 in
  run_to plane (Time.of_sec 20);
  Network.partition_controller plane 2;
  run_to plane (Time.of_sec 50);
  Network.heal_controller plane 2;
  run_to plane (Time.of_min 3);
  (* Every switch homed on an alive member holding a config for it, at
     the management plane's term. *)
  check Alcotest.int "no switch lost to the partition"
    (Topology.n_switches (Network.topology plane))
    (List.length (Invariant.live_switches plane));
  List.iter
    (fun (sid, es) ->
      check Alcotest.bool "edge_switch accessor agrees" true
        (Option.get (Network.edge_switch plane sid) == es);
      let k = Network.uplink_of plane sid in
      check Alcotest.bool "master alive" true
        (List.mem k (Network.alive_controllers plane));
      check Alcotest.bool "master has the group config" true
        (Option.is_some
           (Controller.group_config_of (Network.controller plane k) sid));
      check Alcotest.int "switch term agrees with the management plane"
        (Network.term_of plane sid)
        (Lazyctrl_switch.Edge_switch.master_term es))
    (Invariant.live_switches plane);
  (* No group claimed by two alive members after the heal. *)
  let owners = Hashtbl.create 16 in
  List.iter
    (fun k ->
      List.iter
        (fun (g, _) ->
          let gi = Ids.Group_id.to_int g in
          check Alcotest.bool "single owner per group" false
            (Hashtbl.mem owners gi);
          Hashtbl.replace owners gi k)
        (Member.owned (Network.member plane k)))
    (Network.alive_controllers plane);
  (* And every alive member's ownership view converged to those owners. *)
  List.iter
    (fun k ->
      List.iter
        (fun (v : Coord.view_entry) ->
          match Hashtbl.find_opt owners (Ids.Group_id.to_int v.Coord.v_group) with
          | Some owner ->
              check Alcotest.int "views agree on the owner" owner v.Coord.v_owner
          | None -> Alcotest.fail "view names an unowned group")
        (Member.view (Network.member plane k)))
    (Network.alive_controllers plane);
  check Alcotest.int "no duplicate delivery cluster-wide" 0
    (Network.reliability_stats plane).Reliable.violations

(* A cluster is lazy-mode and single-shard; a network has at least one
   controller. *)
let test_invalid_combinations () =
  let topo = make_topo 5 in
  let rejects what f =
    check Alcotest.bool what true
      (match f () with exception Invalid_argument _ -> true | _ -> false)
  in
  let create ?shards ~controllers mode () =
    Network.create ?shards ~controllers ~mode ~topo ~horizon:(Time.of_min 1) ()
  in
  rejects "no controller" (create ~controllers:0 Network.Lazy);
  rejects "cluster on 4 shards" (create ~shards:4 ~controllers:3 Network.Lazy);
  rejects "OpenFlow cluster" (create ~controllers:3 Network.Openflow)

(* The coordination grammar's accounting hooks: sizes are positive, the
   reliable envelope prices above its payload, and messages print. *)
let test_coord_wire_format () =
  let hello = Coord.Hello { from = 1; load = 3 } in
  let entry =
    {
      Coord.v_group = Ids.Group_id.of_int 2;
      v_term = 4;
      v_owner = 1;
      v_members = [ Ids.Switch_id.of_int 0; Ids.Switch_id.of_int 3 ];
    }
  in
  let claimed = Coord.Claimed { from = 1; entry } in
  let boxed = Coord.Seq { epoch = 1; seq = 7; payload = claimed } in
  List.iter
    (fun m ->
      check Alcotest.bool "size estimate positive" true (Coord.size_estimate m > 0);
      check Alcotest.bool "pp prints something" true
        (String.length (Format.asprintf "%a" Coord.pp m) > 0))
    [ hello; claimed; boxed ];
  check Alcotest.bool "envelope prices above its payload" true
    (Coord.size_estimate boxed > Coord.size_estimate claimed)

let () =
  Alcotest.run "cluster"
    [
      ( "acceptance",
        [
          Alcotest.test_case "kill 1 of 3: zero loss, re-homed" `Slow
            test_kill_one_of_three;
          Alcotest.test_case "involvement stays lazy" `Slow
            test_involvement_stays_lazy;
          Alcotest.test_case "double run byte-identical" `Slow
            test_double_run_byte_identical;
        ] );
      ( "plane",
        [
          Alcotest.test_case "EASM failback after revive" `Slow
            test_easm_failback;
          Alcotest.test_case "partition heals to one owner" `Slow
            test_partition_heals;
          Alcotest.test_case "invalid combinations rejected" `Quick
            test_invalid_combinations;
        ] );
      ( "coord",
        [ Alcotest.test_case "wire format accounting" `Quick test_coord_wire_format ] );
    ]
