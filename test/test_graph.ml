(* Tests for lazyctrl.graph: CSR graphs, coarsening and multilevel k-way
   partitioning. *)

open Lazyctrl_graph
module Prng = Lazyctrl_util.Prng

let check = Alcotest.check
let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* Random weighted graph generator: n vertices, m random edges. *)
let gen_graph =
  let open QCheck2.Gen in
  let* n = int_range 2 40 in
  let* m = int_range 0 (n * 3) in
  let* edges =
    list_size (return m)
      (triple (int_range 0 (n - 1)) (int_range 0 (n - 1)) (float_range 0.1 10.0))
  in
  return (n, edges)

let build (n, edges) = Wgraph.of_edges ~n edges

(* Weight of the edge u–v as u's adjacency lists it; 0 when absent. *)
let edge_weight g u v =
  let w = ref 0.0 in
  Wgraph.iter_neighbors g u (fun x wx -> if x = v then w := !w +. wx);
  !w

(* --- Wgraph ----------------------------------------------------------------- *)

let test_builder_merges_parallel_edges () =
  let g = Wgraph.of_edges ~n:3 [ (0, 1, 1.0); (1, 0, 2.0); (0, 1, 3.0) ] in
  check Alcotest.int "one undirected edge" 1 (Wgraph.n_edges g);
  check (Alcotest.float 1e-9) "weights accumulate" 6.0 (edge_weight g 0 1);
  check (Alcotest.float 1e-9) "symmetric" 6.0 (edge_weight g 1 0);
  check (Alcotest.float 1e-9) "absent edge" 0.0 (edge_weight g 0 2)

let test_builder_drops_self_loops () =
  let g = Wgraph.of_edges ~n:2 [ (0, 0, 5.0); (0, 1, 1.0) ] in
  check Alcotest.int "self loop dropped" 1 (Wgraph.n_edges g);
  check (Alcotest.float 1e-9) "total weight" 1.0 (Wgraph.total_edge_weight g)

let test_builder_rejects () =
  let b = Wgraph.Builder.create ~n:2 in
  Alcotest.check_raises "range"
    (Invalid_argument "Wgraph.Builder: vertex out of range") (fun () ->
      Wgraph.Builder.add_edge b 0 5 1.0);
  Alcotest.check_raises "negative"
    (Invalid_argument "Wgraph.Builder.add_edge: negative weight") (fun () ->
      Wgraph.Builder.add_edge b 0 1 (-1.0))

let test_vertex_weights () =
  let b = Wgraph.Builder.create ~n:3 in
  Wgraph.Builder.set_vertex_weight b 0 5;
  let g = Wgraph.Builder.build b in
  check Alcotest.int "explicit weight" 5 (Wgraph.vertex_weight g 0);
  check Alcotest.int "default weight" 1 (Wgraph.vertex_weight g 1);
  check Alcotest.int "total" 7 (Wgraph.total_vertex_weight g)

let test_iter_edges_once =
  qtest "iter_edges visits each edge once with u<v" gen_graph (fun spec ->
      let g = build spec in
      let count = ref 0 and ok = ref true in
      Wgraph.iter_edges g (fun u v _ ->
          incr count;
          if u >= v then ok := false);
      !ok && !count = Wgraph.n_edges g)

let test_total_edge_weight_consistent =
  qtest "total weight equals edge sum" gen_graph (fun spec ->
      let g = build spec in
      let sum = ref 0.0 in
      Wgraph.iter_edges g (fun _ _ w -> sum := !sum +. w);
      Float.abs (!sum -. Wgraph.total_edge_weight g) < 1e-6)

let test_induced () =
  let g = Wgraph.of_edges ~n:5 [ (0, 1, 1.0); (1, 2, 2.0); (2, 3, 3.0); (3, 4, 4.0) ] in
  let sub, mapping = Wgraph.induced g [| 1; 2; 3 |] in
  check Alcotest.int "sub vertices" 3 (Wgraph.n_vertices sub);
  check Alcotest.int "sub edges" 2 (Wgraph.n_edges sub);
  check (Alcotest.float 1e-9) "edge kept" 2.0 (edge_weight sub 0 1);
  check (Alcotest.array Alcotest.int) "mapping" [| 1; 2; 3 |] mapping

(* --- Coarsen ----------------------------------------------------------------- *)

let test_coarsen_conserves_vertex_weight =
  qtest "contraction conserves total vertex weight" gen_graph (fun spec ->
      let g = build spec in
      let cg, cmap = Coarsen.coarsen ~rng:(Prng.create 1) g in
      Array.length cmap = Wgraph.n_vertices g
      && Wgraph.total_vertex_weight cg = Wgraph.total_vertex_weight g)

let test_coarsen_edge_weight_bound =
  qtest "contraction never increases total edge weight" gen_graph (fun spec ->
      let g = build spec in
      let cg, _ = Coarsen.coarsen ~rng:(Prng.create 2) g in
      Wgraph.total_edge_weight cg <= Wgraph.total_edge_weight g +. 1e-9)

let test_coarsen_dense_ids =
  qtest "coarse ids are dense" gen_graph (fun spec ->
      let g = build spec in
      let cmap = Coarsen.heavy_edge_matching ~rng:(Prng.create 3) g in
      let n' = Array.fold_left (fun a c -> max a (c + 1)) 0 cmap in
      let seen = Array.make n' false in
      Array.iter (fun c -> seen.(c) <- true) cmap;
      Array.for_all Fun.id seen && n' >= (Wgraph.n_vertices g + 1) / 2)

let test_coarsen_halves_clique () =
  (* A clique with uniform weights matches nearly perfectly. *)
  let n = 16 in
  let edges = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      edges := (i, j, 1.0) :: !edges
    done
  done;
  let g = Wgraph.of_edges ~n !edges in
  let cg, _ = Coarsen.coarsen ~rng:(Prng.create 4) g in
  check Alcotest.int "halved" (n / 2) (Wgraph.n_vertices cg)

(* --- Partition ----------------------------------------------------------------- *)

let test_partition_valid =
  qtest "multilevel produces a valid capped assignment"
    QCheck2.Gen.(pair gen_graph (int_range 2 6))
    (fun (spec, k) ->
      let g = build spec in
      let n = Wgraph.n_vertices g in
      let cap = max 2 ((n + k - 1) / k + 1) in
      let a = Partition.multilevel_kway ~rng:(Prng.create 5) ~max_part_weight:cap ~k g in
      Partition.validate g ~k ~max_part_weight:cap a = Ok ())

let test_partition_two_communities () =
  (* Two dense communities joined by one weak edge must be split apart. *)
  let edges = ref [] in
  for i = 0 to 7 do
    for j = i + 1 to 7 do
      edges := (i, j, 10.0) :: !edges;
      edges := (i + 8, j + 8, 10.0) :: !edges
    done
  done;
  edges := (0, 8, 0.1) :: !edges;
  let g = Wgraph.of_edges ~n:16 !edges in
  let a = Partition.multilevel_kway ~rng:(Prng.create 6) ~max_part_weight:8 ~k:2 g in
  check (Alcotest.float 1e-6) "only the bridge is cut" 0.1 (Partition.edge_cut g a);
  check (Alcotest.float 1e-6) "normalized" (0.1 /. Wgraph.total_edge_weight g)
    (Partition.normalized_cut g a)

let test_partition_k1 () =
  let g = Wgraph.of_edges ~n:5 [ (0, 1, 1.0) ] in
  let a = Partition.multilevel_kway ~rng:(Prng.create 7) ~k:1 g in
  check Alcotest.bool "single part" true (Array.for_all (fun p -> p = 0) a);
  check (Alcotest.float 1e-9) "no cut" 0.0 (Partition.edge_cut g a)

let test_partition_infeasible_cap () =
  let g = Wgraph.of_edges ~n:10 [ (0, 1, 1.0) ] in
  Alcotest.check_raises "cap too small"
    (Invalid_argument "Partition.multilevel_kway: infeasible size cap")
    (fun () ->
      ignore (Partition.multilevel_kway ~rng:(Prng.create 8) ~max_part_weight:2 ~k:2 g))

let test_refine_never_worsens =
  qtest "refine does not worsen the cut"
    QCheck2.Gen.(pair gen_graph (int_range 2 5))
    (fun (spec, k) ->
      let g = build spec in
      let n = Wgraph.n_vertices g in
      let rng = Prng.create 9 in
      let a = Array.init n (fun _ -> Prng.int rng k) in
      let before = Partition.edge_cut g a in
      ignore (Partition.refine g ~k a);
      Partition.edge_cut g a <= before +. 1e-9)

let test_validate_errors () =
  let g = Wgraph.of_edges ~n:3 [ (0, 1, 1.0) ] in
  (match Partition.validate g ~k:2 [| 0; 1 |] with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "length mismatch accepted");
  (match Partition.validate g ~k:2 [| 0; 1; 5 |] with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "out-of-range accepted");
  match Partition.validate g ~k:2 ~max_part_weight:1 [| 0; 0; 1 |] with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "cap violation accepted"

let test_bisect_balanced =
  qtest "bisect respects the cap"
    gen_graph
    (fun spec ->
      let g = build spec in
      let n = Wgraph.n_vertices g in
      let cap = (n / 2) + 1 in
      let a = Partition.bisect ~rng:(Prng.create 10) ~max_part_weight:cap g in
      Partition.validate g ~k:2 ~max_part_weight:cap a = Ok ())

let () =
  Alcotest.run "graph"
    [
      ( "wgraph",
        [
          Alcotest.test_case "parallel edges merge" `Quick test_builder_merges_parallel_edges;
          Alcotest.test_case "self loops dropped" `Quick test_builder_drops_self_loops;
          Alcotest.test_case "builder rejects" `Quick test_builder_rejects;
          Alcotest.test_case "vertex weights" `Quick test_vertex_weights;
          test_iter_edges_once;
          test_total_edge_weight_consistent;
          Alcotest.test_case "induced" `Quick test_induced;
        ] );
      ( "coarsen",
        [
          test_coarsen_conserves_vertex_weight;
          test_coarsen_edge_weight_bound;
          test_coarsen_dense_ids;
          Alcotest.test_case "clique halves" `Quick test_coarsen_halves_clique;
        ] );
      ( "partition",
        [
          test_partition_valid;
          Alcotest.test_case "two communities" `Quick test_partition_two_communities;
          Alcotest.test_case "k=1" `Quick test_partition_k1;
          Alcotest.test_case "infeasible cap" `Quick test_partition_infeasible_cap;
          test_refine_never_worsens;
          Alcotest.test_case "validate errors" `Quick test_validate_errors;
          test_bisect_balanced;
        ] );
    ]
