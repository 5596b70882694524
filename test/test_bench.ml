(* Smoke tests for the bench driver executable: target listing and the
   --quick --json -> compare pipeline that CI's bench gate relies on.

   These shell out to the built bench/main.exe (declared as a dune dep
   of the test stanza), so they validate the real CLI surface, not a
   library re-export of it. *)

module Report = Lazyctrl_perf.Report
module Compare = Lazyctrl_perf.Compare

let check = Alcotest.check
let exe = Filename.concat (Filename.concat ".." "bench") "main.exe"

let read_file path = In_channel.with_open_text path In_channel.input_all

let run_capture cmd out =
  Sys.command (Printf.sprintf "%s > %s 2>&1" cmd (Filename.quote out))

(* Every registered target, in registration order.  Deleting or renaming
   a target is a deliberate act: update this list (and any committed
   bench baselines) together. *)
let expected_targets = [ "perf"; "perf-replay"; "hotpath" ]

let test_list () =
  let out = Filename.temp_file "bench_list" ".out" in
  Fun.protect
    ~finally:(fun () -> Sys.remove out)
    (fun () ->
      let rc = run_capture (exe ^ " --list") out in
      check Alcotest.int "--list exits 0" 0 rc;
      let lines =
        String.split_on_char '\n' (read_file out)
        |> List.filter (fun l -> String.length l > 0)
      in
      List.iter
        (fun t ->
          check Alcotest.bool (Printf.sprintf "lists %s" t) true
            (List.mem t lines))
        expected_targets)

let test_quick_json_roundtrip () =
  let json = Filename.temp_file "bench_smoke" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove json)
    (fun () ->
      let out = Filename.temp_file "bench_smoke" ".out" in
      Fun.protect
        ~finally:(fun () -> Sys.remove out)
        (fun () ->
          let rc =
            run_capture
              (Printf.sprintf "%s --quick perf-replay --json %s" exe
                 (Filename.quote json))
              out
          in
          check Alcotest.int "--quick perf-replay exits 0" 0 rc);
      match Report.load json with
      | Error e -> Alcotest.failf "bench JSON unreadable: %s" e
      | Ok results ->
          check Alcotest.bool "has packet-replay result" true
            (List.exists
               (fun (r : Lazyctrl_perf.Measure.result) ->
                 String.equal r.name "packet-replay" && r.ops_per_sec > 0.)
               results);
          (* The report must self-compare clean: this is exactly what
             `make bench-check` does against the committed baseline. *)
          let o = Compare.diff ~baseline:results ~current:results () in
          check Alcotest.bool "self-compare passes" true (Compare.passed o))

let () =
  Alcotest.run "bench"
    [
      ( "driver",
        [
          Alcotest.test_case "--list" `Quick test_list;
          Alcotest.test_case "--quick json + compare" `Slow
            test_quick_json_roundtrip;
        ] );
    ]
