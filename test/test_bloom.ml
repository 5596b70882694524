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
  (* 300 adds saturate the key's one counter at 255, and a saturated
     counter is never decremented. *)
  for _ = 1 to 300 do
    Bloom.Counting.add c 7
  done;
  for _ = 1 to 300 do
    Bloom.Counting.remove c 7
  done;
  check Alcotest.bool "saturated key stays a member" true
    (Bloom.Counting.mem c 7);
  (* A remove at zero does nothing: it neither underflows a counter nor
     sets a bit. *)
  let e = Bloom.Counting.create ~counters:64 ~hashes:1 () in
  Bloom.Counting.remove e 7;
  for key = 0 to 999 do
    if Bloom.Counting.mem e key then
      Alcotest.failf "key %d is a member of an empty filter" key
  done

(* --- Reference model -------------------------------------------------------- *)

(* The one-byte-per-counter filter that [Counting] replaced, kept as its
   oracle: the same hashes and probe positions (reduced with [mod] in
   every geometry), and saturating 8-bit counters held in a byte each. *)
module Byte_counting = struct
  let mix x =
    let x = x lxor (x lsr 30) in
    let x = x * 0x2545F4914F6CDD1D in
    let x = x lxor (x lsr 27) in
    let x = x * 0x3C79AC492BA7B653 in
    x lxor (x lsr 31)

  let hash1 key = mix key land max_int

  let hash2 h1 =
    let y = h1 * 0x3C79AC492BA7B653 in
    ((y lxor (y lsr 32)) land max_int) lor 1

  type t = { counters : Bytes.t; n : int; k : int }

  let create ~hashes ~counters =
    let n = (counters + 63) / 64 * 64 in
    { counters = Bytes.make n '\000'; n; k = hashes }

  let iter_positions t key f =
    let h1 = hash1 key in
    let step = hash2 h1 mod t.n in
    let pos = ref (h1 mod t.n) in
    for _ = 1 to t.k do
      f !pos;
      pos := (!pos + step) mod t.n
    done

  let get t pos = Char.code (Bytes.get t.counters pos)
  let set t pos v = Bytes.set t.counters pos (Char.chr v)

  let add t key = iter_positions t key (fun p -> set t p (min 255 (get t p + 1)))

  let remove t key =
    iter_positions t key (fun p ->
        let v = get t p in
        if v > 0 && v < 255 then set t p (v - 1))

  let mem t key =
    let all = ref true in
    iter_positions t key (fun p -> if get t p = 0 then all := false);
    !all

  let clear t = Bytes.fill t.counters 0 t.n '\000'
end

type op = Add of int * int | Remove of int * int | Clear

(* Short runs land counters on each small value, where a counter moves
   between the bit and the table; long ones saturate them. *)
let op_gen ~keys =
  QCheck2.Gen.(
    let key = int_range 0 (keys - 1)
    and times = frequency [ (2, int_range 1 4); (1, int_range 1 300) ] in
    frequency
      [
        (10, map2 (fun k r -> Add (k, r)) key times);
        (6, map2 (fun k r -> Remove (k, r)) key times);
        (1, pure Clear);
      ])

let print_op = function
  | Add (k, r) -> Printf.sprintf "add %d x%d" k r
  | Remove (k, r) -> Printf.sprintf "remove %d x%d" k r
  | Clear -> "clear"

(* After every operation, [Counting] and the byte-counter oracle agree on
   [mem] for every key of a probe range wider than the key space. *)
let reference_prop ~hashes ~counters =
  let gen =
    QCheck2.Gen.(
      int_range 1 12 >>= fun keys ->
      list_size (int_range 1 40) (op_gen ~keys))
  in
  QCheck2.Test.make ~count:200
    ~name:
      (Printf.sprintf "counting = byte counters (%d counters, %d hashes)"
         counters hashes)
    ~print:(fun ops -> String.concat "; " (List.map print_op ops))
    gen
    (fun ops ->
      let c = Bloom.Counting.create ~hashes ~counters () in
      let o = Byte_counting.create ~hashes ~counters in
      let repeat r f = for _ = 1 to r do f () done in
      List.for_all
        (fun op ->
          (match op with
          | Add (k, r) ->
              repeat r (fun () ->
                  Bloom.Counting.add c k;
                  Byte_counting.add o k)
          | Remove (k, r) ->
              repeat r (fun () ->
                  Bloom.Counting.remove c k;
                  Byte_counting.remove o k)
          | Clear ->
              Bloom.Counting.clear c;
              Byte_counting.clear o);
          List.for_all
            (fun k -> Bool.equal (Bloom.Counting.mem c k) (Byte_counting.mem o k))
            (List.init 64 Fun.id))
        ops)
  |> QCheck_alcotest.to_alcotest

let test_reference_geometries () =
  (* 150 counters round up to 192, which is not a power of two, so those
     probes reduce with [mod]; the other two geometries take the mask. *)
  check Alcotest.(list int) "sizes" [ 64; 192; 16_384 ]
    (List.map
       (fun counters -> Bloom.Counting.size (Bloom.Counting.create ~counters ()))
       [ 64; 150; 16_384 ])

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
      ( "oracle",
        [
          Alcotest.test_case "geometries" `Quick test_reference_geometries;
          reference_prop ~hashes:1 ~counters:64;
          reference_prop ~hashes:4 ~counters:150;
          reference_prop ~hashes:4 ~counters:16_384;
        ] );
    ]
