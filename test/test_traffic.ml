(* Tests for lazyctrl.traffic: traces, generators, analysis, replay. *)

open Lazyctrl_net
open Lazyctrl_sim
open Lazyctrl_topo
open Lazyctrl_traffic
module Prng = Lazyctrl_util.Prng

let check = Alcotest.check
let hid = Ids.Host_id.of_int
let sid = Ids.Switch_id.of_int

let mk_trace rows =
  let b = Trace.Builder.create ~n_hosts:16 ~duration:(Time.of_hour 24) in
  List.iter
    (fun (tns, s, d) ->
      Trace.Builder.add b ~time:(Time.of_ns tns) ~src:(hid s) ~dst:(hid d)
        ~bytes:1000 ~packets:1)
    rows;
  Trace.Builder.build b

(* --- Trace --------------------------------------------------------------------- *)

let test_trace_sorted () =
  let t = mk_trace [ (300, 1, 2); (100, 3, 4); (200, 5, 6) ] in
  check Alcotest.int "count" 3 (Trace.n_flows t);
  let times = List.init 3 (fun i -> Time.to_ns (Trace.flow t i).Trace.time) in
  check (Alcotest.list Alcotest.int) "sorted" [ 100; 200; 300 ] times

let test_trace_stable_ties () =
  let t = mk_trace [ (100, 1, 2); (100, 3, 4) ] in
  check Alcotest.int "first inserted first" 1
    (Ids.Host_id.to_int (Trace.flow t 0).Trace.src)

let test_trace_iter_window () =
  let t = mk_trace [ (100, 1, 2); (200, 3, 4); (300, 5, 6); (400, 7, 8) ] in
  let seen = ref [] in
  Trace.iter ~from:(Time.of_ns 200) ~until:(Time.of_ns 400) t (fun f ->
      seen := Time.to_ns f.Trace.time :: !seen);
  check (Alcotest.list Alcotest.int) "half-open window" [ 200; 300 ] (List.rev !seen)

let test_trace_builder_rejects () =
  let b = Trace.Builder.create ~n_hosts:4 ~duration:(Time.of_sec 1) in
  Alcotest.check_raises "self flow" (Invalid_argument "Trace.Builder.add: self flow")
    (fun () ->
      Trace.Builder.add b ~time:Time.zero ~src:(hid 1) ~dst:(hid 1) ~bytes:1 ~packets:1);
  Alcotest.check_raises "range"
    (Invalid_argument "Trace.Builder.add: host out of range") (fun () ->
      Trace.Builder.add b ~time:Time.zero ~src:(hid 1) ~dst:(hid 9) ~bytes:1 ~packets:1);
  Alcotest.check_raises "beyond duration"
    (Invalid_argument "Trace.Builder.add: beyond duration") (fun () ->
      Trace.Builder.add b ~time:(Time.of_sec 2) ~src:(hid 1) ~dst:(hid 2) ~bytes:1
        ~packets:1)

let test_trace_pairs () =
  let t = mk_trace [ (1, 1, 2); (2, 2, 1); (3, 1, 3) ] in
  check Alcotest.int "unordered pairs" 2 (Trace.communicating_pairs t);
  let counts = Trace.pair_flow_counts t in
  check Alcotest.int "pair 1-2 both directions" 2 (Hashtbl.find counts (1, 2))

let test_trace_sub () =
  let t = mk_trace [ (100, 1, 2); (50, 3, 4) ] in
  let s = Trace.sub_between t ~from:(Time.of_ns 60) ~until:(Time.of_ns 200) in
  check Alcotest.int "windowed" 1 (Trace.n_flows s);
  check Alcotest.int "re-based" 40 (Time.to_ns (Trace.flow s 0).Trace.time)

(* --- Generators ------------------------------------------------------------------ *)

let small_topo ~seed =
  Placement.generate ~rng:(Prng.create seed)
    {
      Placement.n_switches = 20;
      n_tenants = 8;
      tenant_size_min = 15;
      tenant_size_max = 30;
      racks_per_tenant = 3;
      stray_fraction = 0.05;
    }

let test_real_like_shape () =
  let topo = small_topo ~seed:1 in
  let t = Gen.real_like ~rng:(Prng.create 2) ~topo ~n_flows:20_000 () in
  check Alcotest.int "flow count" 20_000 (Trace.n_flows t);
  check Alcotest.int "host space" (Topology.n_hosts topo) (Trace.n_hosts t);
  (* The paper's skew: most flows from a small share of pairs. *)
  let skew = Analysis.skew t ~top_fraction:0.1 in
  check Alcotest.bool "top 10% of pairs carry > 60% of flows" true (skew > 0.6);
  (* Flows touch a tiny subset of all possible pairs. *)
  let n = Topology.n_hosts topo in
  let all_pairs = n * (n - 1) / 2 in
  check Alcotest.bool "sparse pair set" true
    (Trace.communicating_pairs t * 4 < all_pairs)

let test_real_like_deterministic () =
  let topo = small_topo ~seed:1 in
  let t1 = Gen.real_like ~rng:(Prng.create 3) ~topo ~n_flows:1000 () in
  let t2 = Gen.real_like ~rng:(Prng.create 3) ~topo ~n_flows:1000 () in
  for i = 0 to 999 do
    let a = Trace.flow t1 i and b = Trace.flow t2 i in
    if not (Time.equal a.Trace.time b.Trace.time && Ids.Host_id.equal a.Trace.src b.Trace.src)
    then Alcotest.fail "generator not deterministic"
  done

let test_real_like_diurnal () =
  let topo = small_topo ~seed:1 in
  let t = Gen.real_like ~rng:(Prng.create 4) ~topo ~n_flows:30_000 ~churn:0.0 () in
  let count ~from ~until =
    let c = ref 0 in
    Trace.iter ~from ~until t (fun _ -> incr c);
    !c
  in
  let night = count ~from:(Time.of_hour 2) ~until:(Time.of_hour 4) in
  let day = count ~from:(Time.of_hour 10) ~until:(Time.of_hour 12) in
  check Alcotest.bool "day busier than night" true (day > 2 * night)

let test_synthetic_centrality_ordering () =
  let topo = small_topo ~seed:5 in
  let base = Gen.real_like ~rng:(Prng.create 6) ~topo ~n_flows:5_000 () in
  let syn p q seed = Gen.synthetic ~rng:(Prng.create seed) ~topo ~base ~n_flows:30_000 ~p ~q in
  let a = syn 90 10 7 and c = syn 70 30 8 in
  let cen t = Analysis.avg_centrality ~rng:(Prng.create 9) ~k:5 t in
  let ca = cen a and cc = cen c in
  check Alcotest.bool "Syn-A more central than Syn-C" true (ca > cc);
  check Alcotest.bool "Syn-A strongly central" true (ca > 0.6)

let test_synthetic_rejects () =
  let topo = small_topo ~seed:5 in
  let base = Gen.real_like ~rng:(Prng.create 6) ~topo ~n_flows:100 () in
  Alcotest.check_raises "bad p"
    (Invalid_argument "Gen.synthetic: p and q must be percentages") (fun () ->
      ignore (Gen.synthetic ~rng:(Prng.create 1) ~topo ~base ~n_flows:10 ~p:0 ~q:10))

let test_expand_adds_fresh_pairs () =
  let topo = small_topo ~seed:1 in
  let t = Gen.real_like ~rng:(Prng.create 10) ~topo ~n_flows:5_000 () in
  let e =
    Gen.expand ~rng:(Prng.create 11) ~topo ~extra_fraction:0.30 ~from_hour:8
      ~until_hour:24 t
  in
  check Alcotest.int "+30% flows" 6_500 (Trace.n_flows e);
  (* All extra flows land in [8,24). *)
  let early_orig = ref 0 and early_exp = ref 0 in
  Trace.iter ~until:(Time.of_hour 8) t (fun _ -> incr early_orig);
  Trace.iter ~until:(Time.of_hour 8) e (fun _ -> incr early_exp);
  check Alcotest.int "early flows unchanged" !early_orig !early_exp;
  check Alcotest.bool "new pairs appeared" true
    (Trace.communicating_pairs e > Trace.communicating_pairs t)

let test_trace_file_roundtrip () =
  let t = mk_trace [ (100, 1, 2); (200, 3, 4); (300, 5, 6) ] in
  let path = Filename.temp_file "lazyctrl" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace.save t path;
      let t' = Trace.load path in
      check Alcotest.int "flows" (Trace.n_flows t) (Trace.n_flows t');
      check Alcotest.int "hosts" (Trace.n_hosts t) (Trace.n_hosts t');
      for i = 0 to Trace.n_flows t - 1 do
        if Trace.flow t i <> Trace.flow t' i then Alcotest.fail "flow mismatch"
      done)

let test_trace_file_malformed () =
  let path = Filename.temp_file "lazyctrl" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_string oc "not a trace";
      close_out oc;
      (try
         ignore (Trace.load path);
         Alcotest.fail "malformed file accepted"
       with Invalid_argument _ -> ());
      (* Truncation after a valid header must also be rejected. *)
      let t = mk_trace [ (100, 1, 2) ] in
      Trace.save t path;
      let full = In_channel.with_open_bin path In_channel.input_all in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (String.sub full 0 (String.length full - 4)));
      try
        ignore (Trace.load path);
        Alcotest.fail "truncated file accepted"
      with Invalid_argument _ -> ())

(* --- Analysis -------------------------------------------------------------------- *)

let test_switch_intensity () =
  let topo = Topology.create ~n_switches:3 in
  let h i tenant at =
    let host = Host.make ~id:(hid i) ~tenant:(Ids.Tenant_id.of_int tenant) in
    Topology.add_host topo host ~at
  in
  h 0 0 (sid 0);
  h 1 0 (sid 1);
  h 2 0 (sid 0);
  let b = Trace.Builder.create ~n_hosts:3 ~duration:(Time.of_sec 10) in
  (* 5 flows 0->1 (cross switch), 3 flows 0->2 (same switch: no edge). *)
  for i = 1 to 5 do
    Trace.Builder.add b ~time:(Time.of_sec i) ~src:(hid 0) ~dst:(hid 1) ~bytes:1 ~packets:1
  done;
  for i = 1 to 3 do
    Trace.Builder.add b ~time:(Time.of_sec i) ~src:(hid 0) ~dst:(hid 2) ~bytes:1 ~packets:1
  done;
  let t = Trace.Builder.build b in
  let g = Analysis.switch_intensity ~topo t in
  check Alcotest.int "vertices" 3 (Lazyctrl_graph.Wgraph.n_vertices g);
  let pair u v =
    Lazyctrl_graph.Wgraph.(total_edge_weight (fst (induced g [| u; v |])))
  in
  check (Alcotest.float 1e-9) "flows/sec sw0-sw1" 0.5 (pair 0 1);
  check (Alcotest.float 1e-9) "no intra-switch edge" 0.0 (pair 0 2)

let test_skew_crafted () =
  (* 9 flows on one pair, 1 on another: top-50% of 2 pairs carries 90%. *)
  let rows = List.init 9 (fun i -> (i + 1, 1, 2)) @ [ (20, 3, 4) ] in
  let t = mk_trace rows in
  check (Alcotest.float 1e-9) "skew" 0.9 (Analysis.skew t ~top_fraction:0.5)

let test_centrality_crafted () =
  (* Groups {0..7} and {8..15}; 8 intra flows in group 0, 2 cross flows. *)
  let rows =
    List.init 8 (fun i -> (i + 1, i mod 4, 4 + (i mod 4)))
    @ [ (100, 0, 8); (101, 1, 9) ]
  in
  let t = mk_trace rows in
  let assignment h = if h < 8 then 0 else 1 in
  let c = Analysis.centrality_per_group t ~assignment ~k:2 in
  (* 8 intra flows; each of the 2 cross flows counts half against each
     group: 8 / (8 + 1). *)
  check (Alcotest.float 1e-9) "group 0 centrality" (8.0 /. 9.0) c.(0);
  check (Alcotest.float 1e-9) "group 1 has only cross traffic" 0.0 c.(1)

let test_flows_per_second_peak () =
  let t = mk_trace [ (0, 1, 2); (100, 3, 4); (200, 5, 6) ] in
  (* All three flows are inside the first 1-second bucket. *)
  check (Alcotest.float 1e-9) "peak" 3.0
    (Analysis.flows_per_second_peak t ~bucket:(Time.of_sec 1))

(* --- Replay --------------------------------------------------------------------- *)

let test_replay_order_and_chunking () =
  let rows = List.init 100 (fun i -> ((i * 1000) + 1, (i mod 5) + 1, ((i + 1) mod 5) + 7)) in
  let t = mk_trace rows in
  let e = Engine.create () in
  let seen = ref [] in
  let r =
    Replay.start e ~chunk:16
      ~on_flow:(fun f -> seen := Time.to_ns f.Trace.time :: !seen)
      t
  in
  Engine.run e;
  check Alcotest.int "all injected" 100 (Replay.injected r);
  check Alcotest.bool "finished" true (Replay.finished r);
  let times = List.rev !seen in
  check Alcotest.bool "in order" true
    (List.sort compare times = times && List.length times = 100)

let test_replay_timing () =
  let t = mk_trace [ (5000, 1, 2) ] in
  let e = Engine.create () in
  let at = ref 0 in
  ignore (Replay.start e ~on_flow:(fun _ -> at := Time.to_ns (Engine.now e)) t);
  Engine.run e;
  check Alcotest.int "fired at trace time" 5000 !at

let () =
  Alcotest.run "traffic"
    [
      ( "trace",
        [
          Alcotest.test_case "sorted" `Quick test_trace_sorted;
          Alcotest.test_case "stable ties" `Quick test_trace_stable_ties;
          Alcotest.test_case "iter window" `Quick test_trace_iter_window;
          Alcotest.test_case "builder rejects" `Quick test_trace_builder_rejects;
          Alcotest.test_case "pair counts" `Quick test_trace_pairs;
          Alcotest.test_case "sub_between" `Quick test_trace_sub;
          Alcotest.test_case "file roundtrip" `Quick test_trace_file_roundtrip;
          Alcotest.test_case "malformed file" `Quick test_trace_file_malformed;
        ] );
      ( "generators",
        [
          Alcotest.test_case "real-like shape" `Quick test_real_like_shape;
          Alcotest.test_case "deterministic" `Quick test_real_like_deterministic;
          Alcotest.test_case "diurnal" `Quick test_real_like_diurnal;
          Alcotest.test_case "centrality ordering" `Slow test_synthetic_centrality_ordering;
          Alcotest.test_case "synthetic rejects" `Quick test_synthetic_rejects;
          Alcotest.test_case "expand" `Quick test_expand_adds_fresh_pairs;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "switch intensity" `Quick test_switch_intensity;
          Alcotest.test_case "skew" `Quick test_skew_crafted;
          Alcotest.test_case "centrality" `Quick test_centrality_crafted;
          Alcotest.test_case "peak rate" `Quick test_flows_per_second_peak;
        ] );
      ( "replay",
        [
          Alcotest.test_case "order and chunking" `Quick test_replay_order_and_chunking;
          Alcotest.test_case "timing" `Quick test_replay_timing;
        ] );
    ]
