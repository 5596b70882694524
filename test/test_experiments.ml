(* Smoke tests for the experiment harness: every table builder must
   produce a well-formed table on miniature workloads, so regressions in
   the experiments are caught by `dune runtest` rather than by a broken
   paper-reproduction run.  The driver cases shell out to the built CLI
   (a dune dep of the test stanza) to check `lazyctrl experiment`
   itself. *)

module E = Lazyctrl_experiments
module Table = Lazyctrl_util.Table

let check = Alcotest.check

let lines tbl = List.length (String.split_on_char '\n' (Table.render tbl))

let test_storage () =
  let r = E.Storage_exp.run ~group_size:10 ~hosts_per_switch:16 ~probes:10_000 () in
  (* 128 bits/entry x 2 keys x 16 hosts = 512 bytes per peer filter. *)
  check Alcotest.int "bytes follow the geometry" (9 * 512) r.E.Storage_exp.gfib_bytes;
  check Alcotest.bool "fp rate tiny" true (r.E.Storage_exp.measured_fp < 0.001);
  check Alcotest.bool "renders" true (lines (E.Storage_exp.table ()) >= 7)

let test_failover_tables () =
  (* Table I's 8 inference rows, plus the 3 second-spoke controller-failure
     rows, plus header + rule. *)
  check Alcotest.int "inference table" 13 (lines (E.Failover_exp.inference_table ()));
  let tbl = E.Failover_exp.endtoend_table () in
  let rendered = Table.render tbl in
  check Alcotest.int "four scenarios" 6 (lines tbl);
  check Alcotest.bool "all handled" true
    (not
       (List.exists
          (fun line ->
            String.length line > 0
            && String.length line >= 11
            && String.sub line (String.length line - 11) 11 = "NOT handled")
          (String.split_on_char '\n' rendered)))

let test_negotiation_table () =
  check Alcotest.int "four profiles" 6 (lines (E.Ablation.negotiation_table ()))

let test_grouping_tables () =
  (* Tiny synthetic workloads keep this a smoke test, not a benchmark. *)
  let t2 = E.Grouping_exp.table2 ~seed:3 ~n_flows_real:8_000 ~n_flows_syn:8_000 () in
  check Alcotest.int "table2 rows" 6 (lines t2);
  let f6a =
    E.Grouping_exp.fig6a ~seed:3 ~n_flows_syn:8_000 ~group_counts:[ 5; 20 ] ()
  in
  check Alcotest.int "fig6a rows" 4 (lines f6a);
  let f6b = E.Grouping_exp.fig6b ~seed:3 ~n_flows_syn:8_000 ~limits:[ 200 ] () in
  check Alcotest.int "fig6b rows" 3 (lines f6b)

let test_exclusion_table () =
  let tbl =
    E.Ablation.exclusion_table ~seed:3 ~n_flows:10_000 ~fractions:[ 0.0; 0.02 ] ()
  in
  check Alcotest.int "two fractions" 4 (lines tbl)

let test_coldcache_ordering () =
  (* The §V-E ordering is the paper's core latency claim. *)
  let r = E.Coldcache.run ~seed:5 () in
  check Alcotest.bool "intra < inter" true
    (r.E.Coldcache.lazy_intra_ms < r.E.Coldcache.lazy_inter_ms);
  check Alcotest.bool "inter < openflow" true
    (r.E.Coldcache.lazy_inter_ms < r.E.Coldcache.openflow_ms);
  check Alcotest.bool "intra is sub-millisecond" true (r.E.Coldcache.lazy_intra_ms < 1.0)

(* --- the `lazyctrl experiment` driver --------------------------------------- *)

let cli = Filename.concat (Filename.concat ".." "bin") "lazyctrl_cli.exe"

(* Exit code and stdout+stderr of one CLI run. *)
let run_cli args =
  let out = Filename.temp_file "lazyctrl_cli" ".out" in
  Fun.protect
    ~finally:(fun () -> Sys.remove out)
    (fun () ->
      let rc =
        Sys.command
          (Printf.sprintf "%s %s > %s 2>&1" cli args (Filename.quote out))
      in
      (rc, In_channel.with_open_text out In_channel.input_all))

let test_unknown_experiment () =
  let rc, _ = run_cli "experiment nope" in
  check Alcotest.bool "an unknown NAME exits non-zero" true (rc <> 0)

let test_experiment_section () =
  let rc, out = run_cli "experiment --quick storage" in
  check Alcotest.int "exits 0" 0 rc;
  check Alcotest.string "section header, then the table"
    ("\n=== G-FIB storage overhead and false-positive rate (§V-D) ===\n"
    ^ Table.render (E.Storage_exp.table ())
    ^ "\n")
    out

let () =
  Alcotest.run "experiments"
    [
      ( "smoke",
        [
          Alcotest.test_case "storage" `Quick test_storage;
          Alcotest.test_case "failover tables" `Quick test_failover_tables;
          Alcotest.test_case "negotiation" `Quick test_negotiation_table;
          Alcotest.test_case "grouping tables" `Slow test_grouping_tables;
          Alcotest.test_case "host exclusion" `Slow test_exclusion_table;
          Alcotest.test_case "cold-cache ordering" `Slow test_coldcache_ordering;
        ] );
      ( "driver",
        [
          Alcotest.test_case "unknown experiment is a usage error" `Quick
            test_unknown_experiment;
          Alcotest.test_case "section header then table" `Quick
            test_experiment_section;
        ] );
    ]
