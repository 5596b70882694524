(* Tests for lazyctrl.grouping: groupings, SGI, and the Rubinstein
   group-size negotiation. *)

open Lazyctrl_net
open Lazyctrl_graph
open Lazyctrl_grouping
module Prng = Lazyctrl_util.Prng

let check = Alcotest.check
let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let sid = Ids.Switch_id.of_int
let gid = Ids.Group_id.of_int

(* --- Grouping ------------------------------------------------------------------ *)

let test_of_assignment_dense () =
  let g = Grouping.of_assignment [| 5; 5; 9; 5; 2 |] in
  check Alcotest.int "n_switches" 5 (Grouping.n_switches g);
  check Alcotest.int "dense groups" 3 (Grouping.n_groups g);
  (* First-appearance order: 5 -> 0, 9 -> 1, 2 -> 2. *)
  check Alcotest.int "relabel" 0 (Ids.Group_id.to_int (Grouping.group_of g (sid 0)));
  check Alcotest.int "relabel 9" 1 (Ids.Group_id.to_int (Grouping.group_of g (sid 2)));
  check (Alcotest.list Alcotest.int) "members ascending"
    [ 0; 1; 3 ]
    (List.map Ids.Switch_id.to_int (Grouping.members g (gid 0)));
  check Alcotest.int "max size" 3 (Grouping.max_group_size g);
  check Alcotest.bool "same group" true (Grouping.same_group g (sid 0) (sid 3));
  check Alcotest.bool "different group" false (Grouping.same_group g (sid 0) (sid 4))

let test_singleton_and_one () =
  let s = Grouping.singleton_groups ~n_switches:4 in
  check Alcotest.int "singletons" 4 (Grouping.n_groups s);
  let o = Grouping.one_group ~n_switches:4 in
  check Alcotest.int "one" 1 (Grouping.n_groups o);
  check Alcotest.int "size" 4 (Grouping.max_group_size o)

let test_inter_group_intensity () =
  let g = Wgraph.of_edges ~n:4 [ (0, 1, 5.0); (2, 3, 7.0); (1, 2, 2.0) ] in
  let grouping = Grouping.of_assignment [| 0; 0; 1; 1 |] in
  check (Alcotest.float 1e-9) "Winter" 2.0 (Grouping.inter_group_intensity g grouping);
  check (Alcotest.float 1e-9) "normalized" (2.0 /. 14.0)
    (Grouping.normalized_inter g grouping);
  match Grouping.group_pair_intensity g grouping with
  | [ (0, 1, w) ] -> check (Alcotest.float 1e-9) "pair weight" 2.0 w
  | _ -> Alcotest.fail "expected exactly one exchanging pair"

let test_grouping_size_mismatch () =
  let g = Wgraph.of_edges ~n:3 [] in
  let grouping = Grouping.of_assignment [| 0; 1 |] in
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Grouping: intensity graph size mismatch") (fun () ->
      ignore (Grouping.normalized_inter g grouping))

(* --- SGI ------------------------------------------------------------------------ *)

let community_graph ~communities ~size ~internal ~external_w =
  let n = communities * size in
  let edges = ref [] in
  for c = 0 to communities - 1 do
    let base = c * size in
    for i = 0 to size - 1 do
      for j = i + 1 to size - 1 do
        edges := (base + i, base + j, internal) :: !edges
      done
    done;
    if c > 0 then edges := (base, base - size, external_w) :: !edges
  done;
  Wgraph.of_edges ~n !edges

let test_estimate_k () =
  check Alcotest.int "ceil" 3 (Sgi.estimate_k ~n_switches:11 ~limit:4);
  check Alcotest.int "exact" 2 (Sgi.estimate_k ~n_switches:8 ~limit:4);
  check Alcotest.int "at least one" 1 (Sgi.estimate_k ~n_switches:0 ~limit:4)

let test_ini_group_respects_limit =
  qtest "IniGroup respects the size limit"
    QCheck2.Gen.(pair small_int (int_range 2 8))
    (fun (seed, limit) ->
      let g = community_graph ~communities:4 ~size:4 ~internal:5.0 ~external_w:0.5 in
      let limit = max limit 4 in
      let grouping = Sgi.ini_group ~rng:(Prng.create seed) ~limit g in
      Grouping.max_group_size grouping <= limit)

let test_ini_group_finds_communities () =
  let g = community_graph ~communities:4 ~size:6 ~internal:10.0 ~external_w:0.1 in
  let grouping = Sgi.ini_group ~rng:(Prng.create 1) ~limit:6 g in
  (* Perfect grouping cuts only the 3 weak bridges. *)
  check (Alcotest.float 1e-6) "only bridges cut" 0.3
    (Grouping.inter_group_intensity g grouping)

let test_ini_group_invalid () =
  let g = Wgraph.of_edges ~n:4 [] in
  Alcotest.check_raises "limit" (Invalid_argument "Sgi.ini_group: limit < 1")
    (fun () -> ignore (Sgi.ini_group ~rng:(Prng.create 1) ~limit:0 g));
  Alcotest.check_raises "k too small"
    (Invalid_argument "Sgi.ini_group: k too small for the size limit") (fun () ->
      ignore (Sgi.ini_group ~rng:(Prng.create 1) ~limit:2 ~k:1 g))

let test_find_candidate_pair () =
  let g = Wgraph.of_edges ~n:4 [ (0, 2, 9.0); (1, 3, 1.0) ] in
  let grouping = Grouping.of_assignment [| 0; 0; 1; 1 |] in
  (match Sgi.find_candidate_pair g grouping with
  | Some (0, 1) -> ()
  | _ -> Alcotest.fail "expected groups 0 and 1");
  (* With a previous graph, the largest increase wins. *)
  let prev = Wgraph.of_edges ~n:4 [ (0, 2, 9.0) ] in
  match Sgi.find_candidate_pair ~previous:prev g grouping with
  | Some (0, 1) -> ()
  | _ -> Alcotest.fail "expected increase-based pick"

let test_find_candidate_none () =
  let g = Wgraph.of_edges ~n:4 [ (0, 1, 5.0) ] in
  let grouping = Grouping.of_assignment [| 0; 0; 1; 1 |] in
  check Alcotest.bool "no exchange" true (Sgi.find_candidate_pair g grouping = None)

let test_inc_update_improves () =
  (* Start from a deliberately bad grouping: communities split across
     groups. IncUpdate must strictly reduce the cut and keep the limit. *)
  let g = community_graph ~communities:2 ~size:4 ~internal:10.0 ~external_w:0.1 in
  let bad = Grouping.of_assignment [| 0; 0; 1; 1; 1; 1; 0; 0 |] in
  let before = Grouping.inter_group_intensity g bad in
  match Sgi.inc_update ~rng:(Prng.create 2) ~limit:4 ~intensity:g bad with
  | None -> Alcotest.fail "expected an improvement"
  | Some better ->
      check Alcotest.bool "cut reduced" true
        (Grouping.inter_group_intensity g better < before);
      check Alcotest.bool "limit kept" true (Grouping.max_group_size better <= 4)

let test_inc_update_merges_when_fits () =
  (* Two groups whose union fits inside the limit collapse into one. *)
  let g = Wgraph.of_edges ~n:4 [ (0, 2, 5.0); (1, 3, 5.0) ] in
  let grouping = Grouping.of_assignment [| 0; 0; 1; 1 |] in
  match Sgi.inc_update ~rng:(Prng.create 3) ~limit:4 ~intensity:g grouping with
  | None -> Alcotest.fail "merge expected"
  | Some merged ->
      check Alcotest.int "one group" 1 (Grouping.n_groups merged);
      check (Alcotest.float 1e-9) "no cut left" 0.0
        (Grouping.inter_group_intensity g merged)

let test_inc_update_none_when_optimal () =
  let g = community_graph ~communities:2 ~size:4 ~internal:10.0 ~external_w:0.1 in
  let good = Grouping.of_assignment [| 0; 0; 0; 0; 1; 1; 1; 1 |] in
  check Alcotest.bool "already optimal" true
    (Sgi.inc_update ~rng:(Prng.create 4) ~limit:4 ~intensity:g good = None)

(* --- Negotiation ----------------------------------------------------------------- *)

let test_negotiation_closed_form () =
  let controller = { Negotiation.ideal = 100; discount = 0.9 } in
  let switches = { Negotiation.ideal = 20; discount = 0.9 } in
  let limit = Negotiation.equilibrium_limit ~controller ~switches in
  (* Equal discounts: proposer share (1-d)/(1-d^2) = 1/(1+d) ~ 0.526. *)
  check Alcotest.int "equilibrium" 62 limit

let test_negotiation_patience_advantage () =
  let base = { Negotiation.ideal = 100; discount = 0.9 } in
  let impatient_switches = { Negotiation.ideal = 20; discount = 0.5 } in
  let patient_switches = { Negotiation.ideal = 20; discount = 0.99 } in
  let vs s = Negotiation.equilibrium_limit ~controller:base ~switches:s in
  check Alcotest.bool "impatient responder concedes more" true
    (vs impatient_switches > vs patient_switches)

let test_negotiation_simulation_agrees =
  qtest "simulation converges to closed form"
    QCheck2.Gen.(
      quad (int_range 30 200) (int_range 2 29) (float_range 0.5 0.95)
        (float_range 0.5 0.95))
    (fun (ci, si, dc, ds) ->
      let controller = { Negotiation.ideal = ci; discount = dc } in
      let switches = { Negotiation.ideal = si; discount = ds } in
      let closed = Negotiation.equilibrium_limit ~controller ~switches in
      let sim = Negotiation.simulate ~max_rounds:200 ~controller ~switches () in
      sim.Negotiation.rounds = 1 && abs (sim.Negotiation.limit - closed) <= 1)

let test_negotiation_validation () =
  Alcotest.check_raises "bad discount"
    (Invalid_argument "Negotiation: controller: discount outside (0,1)")
    (fun () ->
      ignore
        (Negotiation.equilibrium_limit
           ~controller:{ Negotiation.ideal = 10; discount = 1.5 }
           ~switches:{ Negotiation.ideal = 5; discount = 0.5 }))

let test_capacity_preference () =
  (* The paper's example: 2048-byte filters; a 64 KB SRAM budget leaves
     room for ~31 peers. *)
  let pref =
    Negotiation.capacity_preference ~tcam_entries:512 ~lfib_entry_bytes:128
      ~gfib_bytes_per_peer:2048
  in
  check Alcotest.int "derived ideal" 32 pref

(* --- Ring (wheel ordering) -------------------------------------------------------- *)

let test_ring_neighbors () =
  let members = [ sid 5; sid 1; sid 9 ] in
  (match Lazyctrl_switch.Proto.Ring.neighbors ~members (sid 5) with
  | Some (up, down) ->
      check Alcotest.int "up" 1 (Ids.Switch_id.to_int up);
      check Alcotest.int "down" 9 (Ids.Switch_id.to_int down)
  | None -> Alcotest.fail "expected neighbours");
  (match Lazyctrl_switch.Proto.Ring.neighbors ~members (sid 1) with
  | Some (up, down) ->
      (* Sorted ring is 1-5-9; 1's upstream wraps to 9. *)
      check Alcotest.int "wrap up" 9 (Ids.Switch_id.to_int up);
      check Alcotest.int "wrap down" 5 (Ids.Switch_id.to_int down)
  | None -> Alcotest.fail "expected neighbours");
  check Alcotest.bool "non-member" true
    (Lazyctrl_switch.Proto.Ring.neighbors ~members (sid 2) = None);
  check Alcotest.bool "too small" true
    (Lazyctrl_switch.Proto.Ring.neighbors ~members:[ sid 1 ] (sid 1) = None)

let () =
  Alcotest.run "grouping"
    [
      ( "grouping",
        [
          Alcotest.test_case "dense relabeling" `Quick test_of_assignment_dense;
          Alcotest.test_case "singleton/one" `Quick test_singleton_and_one;
          Alcotest.test_case "inter-group intensity" `Quick test_inter_group_intensity;
          Alcotest.test_case "size mismatch" `Quick test_grouping_size_mismatch;
        ] );
      ( "sgi",
        [
          Alcotest.test_case "estimate_k" `Quick test_estimate_k;
          test_ini_group_respects_limit;
          Alcotest.test_case "finds communities" `Quick test_ini_group_finds_communities;
          Alcotest.test_case "invalid args" `Quick test_ini_group_invalid;
          Alcotest.test_case "candidate pair" `Quick test_find_candidate_pair;
          Alcotest.test_case "no candidate" `Quick test_find_candidate_none;
          Alcotest.test_case "inc_update improves" `Quick test_inc_update_improves;
          Alcotest.test_case "inc_update merges" `Quick test_inc_update_merges_when_fits;
          Alcotest.test_case "inc_update stable at optimum" `Quick test_inc_update_none_when_optimal;
        ] );
      ( "negotiation",
        [
          Alcotest.test_case "closed form" `Quick test_negotiation_closed_form;
          Alcotest.test_case "patience advantage" `Quick test_negotiation_patience_advantage;
          test_negotiation_simulation_agrees;
          Alcotest.test_case "validation" `Quick test_negotiation_validation;
          Alcotest.test_case "capacity preference" `Quick test_capacity_preference;
        ] );
      ("ring", [ Alcotest.test_case "neighbors" `Quick test_ring_neighbors ]);
    ]
