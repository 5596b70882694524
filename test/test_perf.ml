(* Tests for lazyctrl.perf: fixed-work measurement, report
   serialization, and the ops/sec regression gate. *)

module Measure = Lazyctrl_perf.Measure
module Report = Lazyctrl_perf.Report
module Compare = Lazyctrl_perf.Compare

let check = Alcotest.check

(* Naive substring test; keeps the test free of extra library deps. *)
let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let mk ?(events = 0) ?(alloc = 0.) ?(words = 0.) ?(domains = 1) ?scaling name
    ops =
  {
    Measure.name;
    ops_per_sec = ops;
    ns_per_op = 1e9 /. ops;
    alloc_bytes_per_op = alloc;
    minor_words_per_op = words;
    events_fired = events;
    domains;
    scaling_efficiency = scaling;
  }

(* --- Measure ----------------------------------------------------------- *)

let test_measure_run () =
  let calls = ref 0 in
  let r =
    Measure.run ~name:"spin" ~warmup:1 ~reps:2 ~ops_per_rep:10_000
      ~events:(fun () -> 42)
      (fun () ->
        incr calls;
        let acc = ref 0 in
        for i = 1 to 10_000 do
          acc := !acc + i
        done;
        Sys.opaque_identity !acc |> ignore)
  in
  check Alcotest.int "warmup + reps calls" 3 !calls;
  check Alcotest.string "name" "spin" r.Measure.name;
  check Alcotest.bool "positive throughput" true (r.Measure.ops_per_sec > 0.);
  check Alcotest.bool "positive ns/op" true (r.Measure.ns_per_op > 0.);
  check Alcotest.bool "consistent inverse" true
    (Float.abs ((r.Measure.ops_per_sec *. r.Measure.ns_per_op /. 1e9) -. 1.)
    < 1e-6);
  check Alcotest.int "events sampled" 42 r.Measure.events_fired;
  (* The row printer is part of the bench's human-readable surface. *)
  let row = Format.asprintf "%a" Measure.pp_row r in
  check Alcotest.bool "pp_row names the target" true
    (String.length row > 0 && contains row "spin")

let test_measure_run_invalid () =
  Alcotest.check_raises "reps must be positive"
    (Invalid_argument "Measure.run: reps must be positive") (fun () ->
      ignore (Measure.run ~name:"x" ~reps:0 ~ops_per_rep:1 ignore));
  Alcotest.check_raises "ops_per_rep must be positive"
    (Invalid_argument "Measure.run: ops_per_rep must be positive") (fun () ->
      ignore (Measure.run ~name:"x" ~reps:1 ~ops_per_rep:0 ignore))

(* --- Report ------------------------------------------------------------ *)

let test_report_roundtrip () =
  let rs =
    [
      mk ~events:225_200 ~alloc:186.9 ~words:23.4 "engine-event" 477_903.25;
      mk "bloom-query" 43_100_000.;
      mk ~alloc:0.5 ~words:1.65 "lfib-lookup" 2.37e7;
    ]
  in
  match Report.of_string (Report.to_string rs) with
  | Error e -> Alcotest.failf "roundtrip failed: %s" e
  | Ok back ->
      check Alcotest.int "same count" (List.length rs) (List.length back);
      List.iter2
        (fun (a : Measure.result) (b : Measure.result) ->
          check Alcotest.string "name" a.name b.name;
          check (Alcotest.float 1e-3) "ops" a.ops_per_sec b.ops_per_sec;
          check (Alcotest.float 1e-3) "ns" a.ns_per_op b.ns_per_op;
          check (Alcotest.float 1e-3) "alloc" a.alloc_bytes_per_op
            b.alloc_bytes_per_op;
          check (Alcotest.float 1e-3) "minor words" a.minor_words_per_op
            b.minor_words_per_op;
          check Alcotest.int "events" a.events_fired b.events_fired)
        rs back

let test_report_rejects_bad_version () =
  let s = Report.to_string [ mk "x" 1.0 ] in
  let v = string_of_int Report.schema_version in
  let i =
    let rec find j =
      if String.sub s j (String.length v) = v then j else find (j + 1)
    in
    find 0
  in
  let bumped =
    String.sub s 0 i ^ "999"
    ^ String.sub s (i + String.length v) (String.length s - i - String.length v)
  in
  (match Report.of_string bumped with
  | Ok _ -> Alcotest.fail "unknown schema version must be rejected"
  | Error e -> check Alcotest.bool "mentions version" true (contains e "999"));
  match Report.of_string "not json at all" with
  | Ok _ -> Alcotest.fail "garbage must be rejected"
  | Error _ -> ()

let test_report_save_load () =
  let path = Filename.temp_file "lazyctrl_bench" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let rs = [ mk "engine-event" 2e6; mk "packet-replay" 9.2e4 ] in
      Report.save path rs;
      match Report.load path with
      | Error e -> Alcotest.failf "load failed: %s" e
      | Ok back ->
          check Alcotest.int "count" 2 (List.length back);
          check Alcotest.string "first name" "engine-event"
            (List.hd back).Measure.name);
  match Report.load "/nonexistent/BENCH.json" with
  | Ok _ -> Alcotest.fail "missing file must be an error"
  | Error e ->
      check Alcotest.bool "error names the path" true
        (contains e "/nonexistent")

(* --- Compare ----------------------------------------------------------- *)

let baseline = [ mk "engine-event" 1e6; mk "bloom-query" 4e7 ]

let verdict_of outcome name =
  match
    List.find_opt (fun (r : Compare.row) -> String.equal r.name name)
      outcome.Compare.rows
  with
  | Some r -> r.Compare.verdict
  | None -> Alcotest.failf "no row for %s" name

let test_compare_identical () =
  let o = Compare.diff ~baseline ~current:baseline () in
  check Alcotest.bool "identical passes" true (Compare.passed o);
  check Alcotest.string "ok verdict" "ok"
    (Compare.verdict_label (verdict_of o "engine-event"));
  check (Alcotest.list Alcotest.string) "no failures" [] o.Compare.failures

let test_compare_regression () =
  (* Injected 20% slowdown: past the 15% default threshold. *)
  let current = [ mk "engine-event" 0.8e6; mk "bloom-query" 4e7 ] in
  let o = Compare.diff ~baseline ~current () in
  check Alcotest.bool "20% slowdown fails" false (Compare.passed o);
  check Alcotest.string "regressed verdict" "REGRESSED"
    (Compare.verdict_label (verdict_of o "engine-event"));
  check Alcotest.bool "failure recorded" true (o.Compare.failures <> []);
  (* A 10% slowdown stays inside the default 15% tolerance. *)
  let o10 =
    Compare.diff ~baseline ~current:[ mk "engine-event" 0.9e6; mk "bloom-query" 4e7 ] ()
  in
  check Alcotest.bool "10% slowdown tolerated" true (Compare.passed o10);
  (* ...but not inside a tighter explicit one. *)
  let o_tight =
    Compare.diff ~threshold:0.05 ~baseline
      ~current:[ mk "engine-event" 0.9e6; mk "bloom-query" 4e7 ] ()
  in
  check Alcotest.bool "tight threshold catches it" false (Compare.passed o_tight)

let test_compare_missing_and_new () =
  let o_missing = Compare.diff ~baseline ~current:[ mk "engine-event" 1e6 ] () in
  check Alcotest.bool "missing target fails" false (Compare.passed o_missing);
  check Alcotest.string "missing verdict" "MISSING"
    (Compare.verdict_label (verdict_of o_missing "bloom-query"));
  let current = mk "gfib-probe" 9e6 :: baseline in
  let o_new = Compare.diff ~baseline ~current () in
  check Alcotest.bool "new target passes" true (Compare.passed o_new);
  check Alcotest.string "new verdict" "new"
    (Compare.verdict_label (verdict_of o_new "gfib-probe"));
  let o_improved =
    Compare.diff ~baseline ~current:[ mk "engine-event" 2e6; mk "bloom-query" 4e7 ] ()
  in
  check Alcotest.bool "improvement passes" true (Compare.passed o_improved);
  check Alcotest.string "improved verdict" "improved"
    (Compare.verdict_label (verdict_of o_improved "engine-event"))

let test_compare_alloc_regression () =
  (* Same throughput, but engine-event now allocates well past
     baseline * 1.15 + 0.5 words/op: the alloc gate alone must fail. *)
  let base = [ mk ~words:10.0 "engine-event" 1e6; mk "bloom-query" 4e7 ] in
  let current = [ mk ~words:20.0 "engine-event" 1e6; mk "bloom-query" 4e7 ] in
  let o = Compare.diff ~baseline:base ~current () in
  check Alcotest.bool "alloc growth fails" false (Compare.passed o);
  check Alcotest.string "regressed verdict" "REGRESSED"
    (Compare.verdict_label (verdict_of o "engine-event"));
  check Alcotest.bool "failure names allocation" true
    (List.exists (fun m -> contains m "allocation grew") o.Compare.failures);
  (* Noise on an allocation-free target stays inside the absolute
     slack... *)
  let o_noise =
    Compare.diff ~baseline:base
      ~current:[ mk ~words:10.3 "engine-event" 1e6; mk ~words:0.4 "bloom-query" 4e7 ] ()
  in
  check Alcotest.bool "slack tolerates noise" true (Compare.passed o_noise);
  (* ...but one boxed value per op on a zero-alloc baseline does not. *)
  let o_boxed =
    Compare.diff ~baseline:base
      ~current:[ mk ~words:10.0 "engine-event" 1e6; mk ~words:2.0 "bloom-query" 4e7 ] ()
  in
  check Alcotest.bool "new boxing on clean target fails" false
    (Compare.passed o_boxed)

let test_compare_threshold_validation () =
  check (Alcotest.float 1e-12) "default threshold" 0.15
    Compare.default_threshold;
  check (Alcotest.float 1e-12) "alloc slack" 0.5 Compare.alloc_slack;
  let bad t () =
    ignore (Compare.diff ~threshold:t ~baseline ~current:baseline ())
  in
  Alcotest.check_raises "threshold 0 rejected"
    (Invalid_argument "Compare.diff: threshold outside (0,1)") (bad 0.);
  Alcotest.check_raises "threshold 1.5 rejected"
    (Invalid_argument "Compare.diff: threshold outside (0,1)") (bad 1.5)

let test_compare_pp () =
  let o_pass = Compare.diff ~baseline ~current:baseline () in
  let s = Format.asprintf "%a" Compare.pp o_pass in
  check Alcotest.bool "PASS line" true (contains s "compare: PASS");
  let o_fail =
    Compare.diff ~baseline ~current:[ mk "engine-event" 0.5e6; mk "bloom-query" 4e7 ] ()
  in
  let s = Format.asprintf "%a" Compare.pp o_fail in
  check Alcotest.bool "FAIL line" true (contains s "compare: FAIL");
  let row = List.hd o_fail.Compare.rows in
  let s = Format.asprintf "%a" Compare.pp_row row in
  check Alcotest.bool "row names target" true (contains s row.Compare.name)

(* --- schema v3: domains / scaling_efficiency / host_cores ------------- *)

let test_report_v3_fields () =
  let rs =
    [
      mk "packet-replay-d1" 1e5;
      mk ~domains:4 ~scaling:0.71 "packet-replay-d4" 2.84e5;
    ]
  in
  match Report.doc_of_string (Report.to_string ~host_cores:8 rs) with
  | Error e -> Alcotest.failf "doc roundtrip failed: %s" e
  | Ok doc -> (
      check Alcotest.int "host_cores survives" 8 doc.Report.host_cores;
      match doc.Report.results with
      | [ d1; d4 ] ->
          check Alcotest.int "d1 domains" 1 d1.Measure.domains;
          check Alcotest.bool "d1 no efficiency" true
            (d1.Measure.scaling_efficiency = None);
          check Alcotest.int "d4 domains" 4 d4.Measure.domains;
          check (Alcotest.float 1e-9) "d4 efficiency" 0.71
            (Option.get d4.Measure.scaling_efficiency)
      | _ -> Alcotest.fail "wrong benchmark count")

(* Integer fields are read strictly: a fractional schema_version or
   count is a malformed report, not one to truncate. *)
let test_report_rejects_fractional_ints () =
  let module Json = Lazyctrl_util.Json in
  let base =
    match Json.of_string (Report.to_string ~host_cores:2 [ mk "x" 1.0 ]) with
    | Ok j -> j
    | Error e -> Alcotest.failf "report does not parse: %s" e
  in
  let rec set key v = function
    | Json.Obj fields ->
        Json.Obj
          (List.map
             (fun (k, x) -> (k, if String.equal k key then v else set key v x))
             fields)
    | Json.List items -> Json.List (List.map (set key v) items)
    | other -> other
  in
  let rejected key f =
    match Report.doc_of_string (Json.to_string (set key (Json.Num f) base)) with
    | Ok _ -> Alcotest.failf "%s = %g must be rejected" key f
    | Error e -> check Alcotest.bool "error names the field" true (contains e key)
  in
  rejected "schema_version" 3.5;
  rejected "schema_version" 3.99;
  rejected "host_cores" 2.7;
  rejected "events_fired" 1.5;
  rejected "domains" 1.25;
  match Report.doc_of_string (Json.to_string base) with
  | Ok doc -> check Alcotest.int "integral fields still load" 2 doc.Report.host_cores
  | Error e -> Alcotest.failf "unmodified report rejected: %s" e

let test_compare_scaling_gate () =
  let floor = Compare.scaling_floor in
  check (Alcotest.float 1e-12) "floor is 2.5x at 4 domains" (2.5 /. 4.) floor;
  let d1 = mk "replay-d1" 1e5 in
  let good = [ d1; mk ~domains:4 ~scaling:(floor +. 0.1) "replay-d4" 2.9e5 ] in
  (* Same throughput as the baseline so only the efficiency dimension
     can fail — the scaling gate judges the current run, not the diff. *)
  let bad = [ d1; mk ~domains:4 ~scaling:(floor -. 0.1) "replay-d4" 2.9e5 ] in
  let o = Compare.diff ~host_cores:8 ~baseline:good ~current:good () in
  check Alcotest.bool "above floor passes" true (Compare.passed o);
  check (Alcotest.list Alcotest.string) "no skip notes on a big host" []
    o.Compare.notes;
  let o = Compare.diff ~host_cores:8 ~baseline:good ~current:bad () in
  check Alcotest.bool "below floor fails" false (Compare.passed o);
  check Alcotest.bool "failure names the floor" true
    (List.exists (fun m -> contains m "below floor") o.Compare.failures);
  (* Same sub-floor run on a 2-core host: the gate must stand down. *)
  let o = Compare.diff ~host_cores:2 ~baseline:good ~current:bad () in
  check Alcotest.bool "core-starved host skips the gate" true
    (Compare.passed o);
  check Alcotest.bool "skip is noted" true
    (List.exists (fun m -> contains m "2 cores < 4 domains") o.Compare.notes);
  (* Core starvation also exempts the throughput gate (wall clock is
     scheduler noise there) — but not on a host with enough cores. *)
  let slow = [ d1; mk ~domains:4 ~scaling:(floor +. 0.1) "replay-d4" 1.0e5 ] in
  let o = Compare.diff ~host_cores:2 ~baseline:good ~current:slow () in
  check Alcotest.bool "starved throughput drop tolerated" true
    (Compare.passed o);
  let o = Compare.diff ~host_cores:8 ~baseline:good ~current:slow () in
  check Alcotest.bool "same drop fails on a big host" false (Compare.passed o);
  (* No host_cores at all (legacy caller): skip with a note too. *)
  let o = Compare.diff ~baseline:good ~current:bad () in
  check Alcotest.bool "unknown host skips the gate" true (Compare.passed o);
  check Alcotest.bool "unknown-host note" true
    (List.exists (fun m -> contains m "no host_cores") o.Compare.notes);
  (* A multi-domain target that lost its efficiency field is a failure,
     not a silent skip — that is how the probe wiring would break. *)
  let o =
    Compare.diff ~host_cores:8 ~baseline:good
      ~current:[ d1; mk ~domains:4 "replay-d4" 2.9e5 ]
      ()
  in
  check Alcotest.bool "missing efficiency fails" false (Compare.passed o);
  check Alcotest.bool "missing-efficiency message" true
    (List.exists
       (fun m -> contains m "no scaling_efficiency")
       o.Compare.failures)

let () =
  Alcotest.run "perf"
    [
      ( "measure",
        [
          Alcotest.test_case "fixed-work run" `Quick test_measure_run;
          Alcotest.test_case "invalid args" `Quick test_measure_run_invalid;
        ] );
      ( "report",
        [
          Alcotest.test_case "roundtrip" `Quick test_report_roundtrip;
          Alcotest.test_case "bad version rejected" `Quick
            test_report_rejects_bad_version;
          Alcotest.test_case "save/load" `Quick test_report_save_load;
          Alcotest.test_case "v3 domains/host_cores" `Quick
            test_report_v3_fields;
          Alcotest.test_case "fractional integer fields rejected" `Quick
            test_report_rejects_fractional_ints;
        ] );
      ( "compare",
        [
          Alcotest.test_case "identical" `Quick test_compare_identical;
          Alcotest.test_case "20% regression fails" `Quick
            test_compare_regression;
          Alcotest.test_case "missing/new/improved" `Quick
            test_compare_missing_and_new;
          Alcotest.test_case "alloc regression" `Quick
            test_compare_alloc_regression;
          Alcotest.test_case "threshold validation" `Quick
            test_compare_threshold_validation;
          Alcotest.test_case "pretty printers" `Quick test_compare_pp;
          Alcotest.test_case "scaling gate" `Quick test_compare_scaling_gate;
        ] );
    ]
