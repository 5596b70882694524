(* Tests for lazyctrl.bloom: plain and counting Bloom filters. *)

module Bloom = Lazyctrl_bloom.Bloom
module Prng = Lazyctrl_util.Prng

let check = Alcotest.check
let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let test_no_false_negatives =
  qtest "no false negatives"
    QCheck2.Gen.(list_size (int_range 0 200) (int_range 0 1_000_000))
    (fun keys ->
      let b = Bloom.create ~bits:8192 () in
      List.iter (Bloom.add b) keys;
      List.for_all (Bloom.mem b) keys)

let test_empty_matches_nothing () =
  let b = Bloom.create ~bits:1024 () in
  let rng = Prng.create 1 in
  for _ = 1 to 1000 do
    if Bloom.mem b (Prng.int rng 1_000_000) then
      Alcotest.fail "empty filter claimed membership"
  done

let test_fp_rate_reasonable () =
  (* 128 bits/entry with k=4 should give a tiny false-positive rate. *)
  let b = Bloom.create ~bits:(128 * 128) () in
  for i = 0 to 127 do
    Bloom.add b i
  done;
  let rng = Prng.create 2 in
  let fp = ref 0 in
  let probes = 100_000 in
  for _ = 1 to probes do
    if Bloom.mem b (1000 + Prng.int rng 10_000_000) then incr fp
  done;
  let rate = Float.of_int !fp /. Float.of_int probes in
  check Alcotest.bool "fp below 0.1%" true (rate < 0.001)

let test_fp_rate_estimators () =
  let b = Bloom.create ~bits:4096 () in
  for i = 0 to 255 do
    Bloom.add b i
  done;
  check Alcotest.bool "fill in (0,1)" true
    (Bloom.fill_ratio b > 0.0 && Bloom.fill_ratio b < 1.0);
  check Alcotest.bool "fp estimate positive" true (Bloom.estimated_fp_rate b > 0.0)

let test_invalid_args () =
  Alcotest.check_raises "zero bits"
    (Invalid_argument "Bloom.create: bits must be positive") (fun () ->
      ignore (Bloom.create ~bits:0 ()));
  Alcotest.check_raises "zero hashes"
    (Invalid_argument "Bloom.create: hashes must be positive") (fun () ->
      ignore (Bloom.create ~hashes:0 ~bits:64 ()))

(* --- Counting -------------------------------------------------------------- *)

let test_counting_add_remove =
  qtest "counting: removed keys disappear, kept keys stay"
    QCheck2.Gen.(list_size (int_range 1 100) (int_range 0 1_000_000))
    (fun keys ->
      let keys = List.sort_uniq compare keys in
      let c = Bloom.Counting.create ~counters:8192 () in
      List.iter (Bloom.Counting.add c) keys;
      match keys with
      | [] -> true
      | victim :: kept ->
          Bloom.Counting.remove c victim;
          (* Kept keys can never be false-negative. *)
          List.for_all (Bloom.Counting.mem c) kept)

let test_counting_remove_clears () =
  let c = Bloom.Counting.create ~counters:4096 () in
  Bloom.Counting.add c 42;
  check Alcotest.bool "present" true (Bloom.Counting.mem c 42);
  Bloom.Counting.remove c 42;
  check Alcotest.bool "absent after remove" false (Bloom.Counting.mem c 42)

let test_counting_clear () =
  let c = Bloom.Counting.create ~counters:1024 () in
  Bloom.Counting.add c 1;
  Bloom.Counting.clear c;
  check Alcotest.bool "cleared" false (Bloom.Counting.mem c 1)

let test_counting_saturation () =
  let c = Bloom.Counting.create ~counters:64 ~hashes:1 () in
  (* Push one counter past 255 and verify saturation never underflows
     membership of other residents. *)
  for _ = 1 to 300 do
    Bloom.Counting.add c 7
  done;
  for _ = 1 to 300 do
    Bloom.Counting.remove c 7
  done;
  (* Saturated counters stay put: membership may remain (over-approximate)
     but must not crash or go negative. *)
  ignore (Bloom.Counting.mem c 7)

let () =
  Alcotest.run "bloom"
    [
      ( "plain",
        [
          test_no_false_negatives;
          Alcotest.test_case "empty" `Quick test_empty_matches_nothing;
          Alcotest.test_case "fp rate at 128 bits/entry" `Quick test_fp_rate_reasonable;
          Alcotest.test_case "estimators" `Quick test_fp_rate_estimators;
          Alcotest.test_case "invalid args" `Quick test_invalid_args;
        ] );
      ( "counting",
        [
          test_counting_add_remove;
          Alcotest.test_case "remove clears" `Quick test_counting_remove_clears;
          Alcotest.test_case "clear" `Quick test_counting_clear;
          Alcotest.test_case "saturation" `Quick test_counting_saturation;
        ] );
    ]
