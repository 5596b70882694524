(* Smoke tests for the benchmark: every workload on an 8-switch, 1-hour,
   2k-flow variant, in both modes and on both the tuning seed (42) and
   the held-out seed (7). *)

module B = Lazyctrl_benchmark
module W = B.Workload
module Json = Lazyctrl_perf.Json

let spec =
  match Json.of_string (In_channel.with_open_text "../../BENCHMARK.json" In_channel.input_all) with
  | Ok j -> j
  | Error e -> failwith ("BENCHMARK.json: " ^ e)

let spec_list key =
  Option.value ~default:[] (Option.bind (Json.member key spec) Json.to_list)

let spec_metrics key =
  List.map
    (fun m ->
      let field k = Option.get (Option.bind (Json.member k m) Json.to_str) in
      (field "name", field "unit"))
    (spec_list key)

let seeds = [ 42; 7 ]

(* One run and one trace per (workload, seed), shared by the cases. *)
let results =
  lazy
    (List.concat_map
       (fun w ->
         let w = W.smoke w in
         List.map
           (fun seed ->
             ( w.W.name,
               seed,
               B.Bench.run w ~seed ~seconds:0.,
               B.Bench.trace w ~seed ~seconds:0. ))
           seeds)
       W.all)

let label name seed mode = Printf.sprintf "%s seed %d %s" name seed mode

let names_and_units (r : B.Bench.result) =
  List.map (fun (m : B.Bench.metric) -> (m.name, m.unit_)) r.metrics

let test_workloads_match_spec () =
  let names =
    List.map (fun w -> Option.get (Option.bind (Json.member "name" w) Json.to_str)) (spec_list "workloads")
  in
  Alcotest.(check (list string)) "workloads" names (List.map (fun w -> w.W.name) W.all)

let test_metrics_match_spec () =
  let e2e = spec_metrics "end_to_end" and per_layer = spec_metrics "per_layer" in
  List.iter
    (fun (name, seed, run, trace) ->
      Alcotest.(check (list (pair string string))) (label name seed "run") e2e (names_and_units run);
      Alcotest.(check (list (pair string string)))
        (label name seed "trace") per_layer (names_and_units trace))
    (Lazy.force results)

let test_output_parses () =
  List.iter
    (fun (name, seed, run, trace) ->
      List.iter
        (fun (mode, r) ->
          let line = B.Bench.one_line (B.Bench.result_json r) in
          Alcotest.(check bool) (label name seed mode ^ " one line") false (String.contains line '\n');
          match Json.of_string line with
          | Error e -> Alcotest.failf "%s: %s" (label name seed mode) e
          | Ok j ->
              List.iter
                (fun k ->
                  Alcotest.(check bool) (label name seed mode ^ " has " ^ k) true
                    (Option.is_some (Json.member k j)))
                [ "correct"; "attempted"; "failed"; "metrics" ];
              Alcotest.(check bool) (label name seed mode ^ " header parses") true
                (Result.is_ok (Json.of_string (B.Bench.one_line (B.Bench.header_json r)))))
        [ ("run", run); ("trace", trace) ])
    (Lazy.force results)

(* Untraced runs, traced step-driven runs and every repetition of both
   fire the same events and deliver the same flows. *)
let test_modes_agree () =
  List.iter
    (fun (name, seed, (run : B.Bench.result), (trace : B.Bench.result)) ->
      Alcotest.(check (list string)) (label name seed "run problems") [] run.problems;
      Alcotest.(check (list string)) (label name seed "trace problems") [] trace.problems;
      Alcotest.(check (list string))
        (label name seed "run vs trace") []
        (B.Bench.check_counts [ ("run", run.counts); ("trace", trace.counts) ]);
      Alcotest.(check int) (label name seed "no repetition failed") 0 run.failed;
      Alcotest.(check int) (label name seed "attempted") run.reps run.attempted;
      Alcotest.(check bool) (label name seed "flows replayed") true (run.counts.W.injected > 0))
    (Lazy.force results)

(* Metrics of the simulation itself; wall-time-derived counts and GC
   counters depend on the host. *)
let simulated (r : B.Bench.result) =
  List.filter_map
    (fun (m : B.Bench.metric) ->
      match m.unit_ with
      | ("count" | "req/flow" | "B/flow" | "ms")
        when not (String.equal m.name "engine.heavy_steps" || String.starts_with ~prefix:"gc." m.name)
        ->
          Some (m.name, m.value)
      | _ -> None)
    r.metrics

let test_double_run () =
  List.iter
    (fun (name, seed, run, trace) ->
      let w = W.smoke (Option.get (W.find name)) in
      let run' = B.Bench.run w ~seed ~seconds:0. in
      let trace' = B.Bench.trace w ~seed ~seconds:0. in
      Alcotest.(check (list (pair string (float 0.))))
        (label name seed "run twice") (simulated run) (simulated run');
      Alcotest.(check (list (pair string (float 0.))))
        (label name seed "trace twice") (simulated trace) (simulated trace'))
    (List.filter (fun (_, seed, _, _) -> seed = 42) (Lazy.force results))

let test_seeds_differ () =
  List.iter
    (fun w ->
      let counts seed =
        List.find_map
          (fun (name, s, (r : B.Bench.result), _) ->
            if String.equal name w.W.name && s = seed then Some r.counts else None)
          (Lazy.force results)
        |> Option.get
      in
      Alcotest.(check bool) (w.W.name ^ " seeds give different inputs") false
        (List.is_empty (B.Bench.check_counts [ ("42", counts 42); ("7", counts 7) ])))
    W.all

let test_planted_mismatch () =
  let _, _, run, _ = List.hd (Lazy.force results) in
  let c = run.B.Bench.counts in
  let planted = { c with W.events = c.W.events + 1 } in
  Alcotest.(check int) "one problem" 1
    (List.length (B.Bench.check_counts [ ("untraced", c); ("traced", planted) ]));
  let bad = { run with B.Bench.problems = [ "planted" ] } in
  match Json.of_string (B.Bench.one_line (B.Bench.result_json bad)) with
  | Ok j -> Alcotest.(check bool) "reported incorrect" true (Json.member "correct" j = Some (Json.Bool false))
  | Error e -> Alcotest.fail e

let test_quartiles () =
  (* statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25] *)
  let q1, med, q3 = B.Agree.quartiles (List.init 10 (fun i -> float_of_int (i + 1))) in
  Alcotest.(check (list (float 1e-12))) "1..10" [ 2.75; 5.5; 8.25 ] [ q1; med; q3 ];
  let q1, med, q3 = B.Agree.quartiles [ 3.; 1.; 2. ] in
  Alcotest.(check (list (float 1e-12))) "1..3" [ 1.; 2.; 3. ] [ q1; med; q3 ];
  match B.Agree.bounds_of_spec (Json.to_string spec) with
  | Ok bounds ->
      Alcotest.(check int) "one bound per end-to-end metric"
        (List.length (spec_list "end_to_end")) (List.length bounds)
  | Error e -> Alcotest.fail e

(* agree over directories of saved outputs, built from the smoke runs. *)
let bounds =
  match B.Agree.bounds_of_spec (Json.to_string spec) with
  | Ok b -> b
  | Error e -> failwith e

let fresh_dir name =
  if Sys.file_exists name then
    Array.iter (fun f -> Sys.remove (Filename.concat name f)) (Sys.readdir name)
  else Sys.mkdir name 0o755;
  name

let save dir file (r : B.Bench.result) =
  Out_channel.with_open_text (Filename.concat dir file) (fun oc ->
      Printf.fprintf oc "%s\n%s\n"
        (B.Bench.one_line (B.Bench.header_json r))
        (B.Bench.one_line (B.Bench.result_json r)))

(* Every smoke run of both modes, except the workloads in [skip]. *)
let saved ?(skip = []) name =
  let dir = fresh_dir name in
  List.iter
    (fun (w, seed, run, trace) ->
      if not (List.mem w skip) then begin
        save dir (Printf.sprintf "%s-%d-run.out" w seed) run;
        save dir (Printf.sprintf "%s-%d-trace.out" w seed) trace
      end)
    (Lazy.force results);
  dir

let test_agree () =
  let full = saved "agree-full" in
  let check name expected dir_b =
    Alcotest.(check bool) name expected (B.Agree.compare_dirs ~bounds full dir_b)
  in
  check "a directory agrees with itself" true full;
  check "an empty directory fails" false (fresh_dir "agree-empty");
  check "a missing workload fails" false (saved ~skip:[ "day-openflow" ] "agree-missing");
  let dir = saved "agree-garbage" in
  Out_channel.with_open_text (Filename.concat dir "crashed.out") (fun oc ->
      output_string oc "Fatal error: exception Not_found\n");
  check "a file without a result fails" false dir;
  let _, _, run, _ = List.hd (Lazy.force results) in
  let dir = saved "agree-incorrect" in
  save dir "incorrect.out" { run with B.Bench.problems = [ "planted" ] };
  check "a correct:false run fails" false dir;
  let dir = saved "agree-no-metric" in
  save dir "no-metric.out" { run with B.Bench.metrics = List.tl run.B.Bench.metrics };
  check "a run without an end-to-end metric fails" false dir

let () =
  Alcotest.run "benchmark"
    [
      ( "smoke",
        [
          Alcotest.test_case "workloads match BENCHMARK.json" `Quick test_workloads_match_spec;
          Alcotest.test_case "metrics and units match BENCHMARK.json" `Quick
            test_metrics_match_spec;
          Alcotest.test_case "result is one parseable JSON line" `Quick test_output_parses;
          Alcotest.test_case "untraced, traced and step-driven counts agree" `Quick
            test_modes_agree;
          Alcotest.test_case "two runs in one process agree" `Quick test_double_run;
          Alcotest.test_case "seeds 42 and 7 differ" `Quick test_seeds_differ;
          Alcotest.test_case "planted count mismatch is caught" `Quick test_planted_mismatch;
          Alcotest.test_case "quartiles match Python's" `Quick test_quartiles;
          Alcotest.test_case "agree fails on missing or incorrect runs" `Quick test_agree;
        ] );
    ]
