(* Tests for lazyctrl.util: PRNG, heaps, union-find, statistics, tables,
   JSON. *)

module Prng = Lazyctrl_util.Prng
module Intmap = Lazyctrl_util.Intmap
module Heap = Lazyctrl_util.Heap
module Union_find = Lazyctrl_util.Union_find
module Stats = Lazyctrl_util.Stats
module Table = Lazyctrl_util.Table
module Json = Lazyctrl_util.Json

let check = Alcotest.check
let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* --- PRNG ------------------------------------------------------------- *)

let test_prng_deterministic () =
  let a = Prng.create 1 and b = Prng.create 1 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if not (Int64.equal (Prng.bits64 a) (Prng.bits64 b)) then differs := true
  done;
  check Alcotest.bool "different seeds differ" true !differs

let test_prng_named_stable () =
  let parent = Prng.create 7 in
  let x = Prng.bits64 (Prng.named parent "alpha") in
  (* [named] must not advance the parent, so the same label re-derives the
     same stream. *)
  let y = Prng.bits64 (Prng.named parent "alpha") in
  let z = Prng.bits64 (Prng.named parent "beta") in
  check Alcotest.int64 "same label same stream" x y;
  check Alcotest.bool "different label differs" true (not (Int64.equal x z))

let test_prng_int_bounds =
  qtest "Prng.int within bounds"
    QCheck2.Gen.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Prng.create seed in
      let v = Prng.int rng bound in
      v >= 0 && v < bound)

let test_prng_int_in_bounds =
  qtest "Prng.int_in inclusive bounds"
    QCheck2.Gen.(triple small_int (int_range (-50) 50) (int_range 0 100))
    (fun (seed, lo, span) ->
      let hi = lo + span in
      let v = Prng.int_in (Prng.create seed) lo hi in
      v >= lo && v <= hi)

let test_prng_uniformity () =
  let rng = Prng.create 99 in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let i = Prng.int rng 10 in
    buckets.(i) <- buckets.(i) + 1
  done;
  Array.iteri
    (fun i c ->
      if abs (c - (n / 10)) > n / 50 then
        Alcotest.failf "bucket %d count %d too far from %d" i c (n / 10))
    buckets

let test_prng_float_range () =
  let rng = Prng.create 3 in
  for _ = 1 to 1000 do
    let v = Prng.float rng 2.5 in
    if v < 0.0 || v >= 2.5 then Alcotest.failf "float out of range: %f" v
  done

let test_shuffle_is_permutation =
  qtest "shuffle preserves multiset"
    QCheck2.Gen.(pair small_int (list small_int))
    (fun (seed, xs) ->
      let a = Array.of_list xs in
      Prng.shuffle (Prng.create seed) a;
      List.sort compare (Array.to_list a) = List.sort compare xs)

let test_sample_distinct =
  qtest "sample_distinct: distinct, in range, right count"
    QCheck2.Gen.(pair small_int (int_range 1 200))
    (fun (seed, bound) ->
      let n = max 1 (bound / 2) in
      let xs = Prng.sample_distinct (Prng.create seed) ~n ~bound in
      List.length xs = n
      && List.length (List.sort_uniq compare xs) = n
      && List.for_all (fun x -> x >= 0 && x < bound) xs)

let test_zipf_skew () =
  let rng = Prng.create 5 in
  let z = Prng.Zipf.create ~n:1000 ~alpha:1.2 in
  let counts = Array.make 1000 0 in
  for _ = 1 to 50_000 do
    let r = Prng.Zipf.draw z rng in
    counts.(r) <- counts.(r) + 1
  done;
  (* Rank 0 must dominate rank 500 heavily under alpha = 1.2. *)
  check Alcotest.bool "rank 0 much hotter than rank 500" true
    (counts.(0) > 20 * (counts.(500) + 1))

let test_exponential_mean () =
  let rng = Prng.create 11 in
  let sum = ref 0.0 in
  let n = 50_000 in
  for _ = 1 to n do
    sum := !sum +. Prng.exponential rng ~mean:3.0
  done;
  let mean = !sum /. Float.of_int n in
  check Alcotest.bool "empirical mean near 3.0" true (Float.abs (mean -. 3.0) < 0.1)

(* --- Heap ------------------------------------------------------------- *)

let test_heap_sorted_drain =
  qtest "heap drains in sorted order"
    QCheck2.Gen.(list int)
    (fun xs ->
      let h = Heap.create ~cmp:Int.compare in
      List.iter (Heap.push h) xs;
      let rec drain acc =
        match Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc)
      in
      drain [] = List.sort compare xs)

let test_heap_to_sorted_non_destructive () =
  let h = Heap.create ~cmp:Int.compare in
  List.iter (Heap.push h) [ 5; 1; 3 ];
  check (Alcotest.list Alcotest.int) "sorted" [ 1; 3; 5 ] (Heap.to_sorted_list h);
  check Alcotest.int "length preserved" 3 (Heap.length h)

let test_heap_peek_pop () =
  let h = Heap.create ~cmp:Int.compare in
  check Alcotest.bool "empty" true (Heap.is_empty h);
  check (Alcotest.option Alcotest.int) "peek empty" None (Heap.peek h);
  Heap.push h 2;
  Heap.push h 1;
  check (Alcotest.option Alcotest.int) "peek min" (Some 1) (Heap.peek h);
  check Alcotest.int "pop_exn" 1 (Heap.pop_exn h);
  Heap.clear h;
  check Alcotest.bool "cleared" true (Heap.is_empty h)

(* The flat triples heap must be observationally identical to the
   polymorphic heap it replaced in the scheduler: same pop order under
   lexicographic (time, seq), including the scheduler's lazy-deletion
   cancel pattern where cancelled entries stay in the heap and are
   skipped at pop time. *)
let test_flat_heap_matches_poly =
  qtest ~count:20 "flat heap matches poly heap under cancels"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Prng.create seed in
      let flat = Heap.Flat.create () in
      let cmp (t1, s1, _) (t2, s2, _) =
        if t1 <> t2 then Int.compare t1 t2 else Int.compare s1 s2
      in
      let poly = Heap.create ~cmp in
      let cancelled = Hashtbl.create 64 in
      let seq = ref 0 in
      let ok = ref true in
      (* Pop one surviving element from each side, skipping cancelled
         entries exactly as the engine does, and compare the triples. *)
      let rec pop_flat () =
        if Heap.Flat.is_empty flat then None
        else begin
          let t = Heap.Flat.min_time flat
          and s = Heap.Flat.min_seq flat
          and p = Heap.Flat.min_payload flat in
          Heap.Flat.remove_min flat;
          if Hashtbl.mem cancelled s then pop_flat () else Some (t, s, p)
        end
      in
      let rec pop_poly () =
        match Heap.pop poly with
        | None -> None
        | Some ((_, s, _) as e) ->
            if Hashtbl.mem cancelled s then pop_poly () else Some e
      in
      let pop_both () =
        if Heap.Flat.length flat <> Heap.length poly then ok := false;
        if pop_flat () <> pop_poly () then ok := false
      in
      for _ = 1 to 10_000 do
        match Prng.int rng 4 with
        | 0 | 1 ->
            (* Duplicate times force seq tie-breaking to matter. *)
            let time = Prng.int rng 512 in
            let s = !seq in
            incr seq;
            Heap.Flat.push flat ~time ~seq:s ~payload:(time lxor s);
            Heap.push poly (time, s, time lxor s)
        | 2 ->
            (* Lazy-deletion cancel of a random previously issued seq
               (possibly one already popped: then it is a no-op). *)
            if !seq > 0 then Hashtbl.replace cancelled (Prng.int rng !seq) ()
        | _ -> pop_both ()
      done;
      (* Drain the survivors, then clear. *)
      let rec drain () =
        let a = pop_flat () and b = pop_poly () in
        if a <> b then ok := false;
        if a <> None || b <> None then drain ()
      in
      drain ();
      Heap.Flat.clear flat;
      !ok && Heap.Flat.is_empty flat && Heap.Flat.length flat = 0)

let test_indexed_heap_basics () =
  let h = Heap.Indexed.create 10 in
  Heap.Indexed.insert h 3 1.0;
  Heap.Indexed.insert h 7 5.0;
  Heap.Indexed.insert h 1 3.0;
  check Alcotest.bool "mem" true (Heap.Indexed.mem h 7);
  check Alcotest.int "cardinal" 3 (Heap.Indexed.cardinal h);
  check (Alcotest.float 1e-9) "priority" 5.0 (Heap.Indexed.priority h 7);
  (match Heap.Indexed.pop_max h with
  | Some (7, p) -> check (Alcotest.float 1e-9) "max prio" 5.0 p
  | other ->
      Alcotest.failf "expected key 7, got %s"
        (match other with Some (k, _) -> string_of_int k | None -> "none"));
  Heap.Indexed.adjust h 3 10.0;
  (match Heap.Indexed.pop_max h with
  | Some (3, _) -> ()
  | _ -> Alcotest.fail "adjust up should win");
  Heap.Indexed.remove h 1;
  check Alcotest.int "empty after removals" 0 (Heap.Indexed.cardinal h)

let test_indexed_heap_adjust_down () =
  let h = Heap.Indexed.create 4 in
  Heap.Indexed.insert h 0 10.0;
  Heap.Indexed.insert h 1 20.0;
  Heap.Indexed.adjust h 1 1.0;
  match Heap.Indexed.pop_max h with
  | Some (0, _) -> ()
  | _ -> Alcotest.fail "adjust down should demote"

let test_indexed_heap_random =
  qtest "indexed heap pops in priority order"
    QCheck2.Gen.(list_size (int_range 1 50) (float_range 0.0 100.0))
    (fun prios ->
      let n = List.length prios in
      let h = Heap.Indexed.create n in
      List.iteri (fun i p -> Heap.Indexed.insert h i p) prios;
      let rec drain last =
        match Heap.Indexed.pop_max h with
        | None -> true
        | Some (_, p) -> p <= last && drain p
      in
      drain infinity)

(* --- Union-find -------------------------------------------------------- *)

let test_union_find () =
  let u = Union_find.create 6 in
  check Alcotest.int "initial sets" 6 (Union_find.count u);
  check Alcotest.bool "union new" true (Union_find.union u 0 1);
  check Alcotest.bool "union again" false (Union_find.union u 1 0);
  ignore (Union_find.union u 2 3);
  ignore (Union_find.union u 0 2);
  check Alcotest.bool "same 1 3" true (Union_find.same u 1 3);
  check Alcotest.bool "not same 1 4" false (Union_find.same u 1 4);
  check Alcotest.int "sets" 3 (Union_find.count u);
  check Alcotest.int "size of component" 4 (Union_find.size u 3)

(* --- Stats -------------------------------------------------------------- *)

let test_online_mean_var () =
  let o = Stats.Online.create () in
  List.iter (Stats.Online.add o) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  check Alcotest.int "count" 8 (Stats.Online.count o);
  check (Alcotest.float 1e-9) "mean" 5.0 (Stats.Online.mean o);
  (* Unbiased sample variance of this classic data set is 32/7. *)
  check (Alcotest.float 1e-9) "variance" (32.0 /. 7.0) (Stats.Online.variance o);
  check (Alcotest.float 1e-9) "min" 2.0 (Stats.Online.min o);
  check (Alcotest.float 1e-9) "max" 9.0 (Stats.Online.max o)

let test_online_merge =
  qtest "Online.merge equals concatenation"
    QCheck2.Gen.(pair (list (float_range (-100.) 100.)) (list (float_range (-100.) 100.)))
    (fun (xs, ys) ->
      let a = Stats.Online.create () and b = Stats.Online.create () in
      List.iter (Stats.Online.add a) xs;
      List.iter (Stats.Online.add b) ys;
      let m = Stats.Online.merge a b in
      let all = Stats.Online.create () in
      List.iter (Stats.Online.add all) (xs @ ys);
      Stats.Online.count m = Stats.Online.count all
      && Float.abs (Stats.Online.mean m -. Stats.Online.mean all) < 1e-6
      && Float.abs (Stats.Online.variance m -. Stats.Online.variance all) < 1e-6)

let test_percentile () =
  let a = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  check (Alcotest.float 1e-9) "p0" 1.0 (Stats.percentile_of_sorted a 0.0);
  check (Alcotest.float 1e-9) "p50" 3.0 (Stats.percentile_of_sorted a 0.5);
  check (Alcotest.float 1e-9) "p100" 5.0 (Stats.percentile_of_sorted a 1.0);
  check (Alcotest.float 1e-9) "p25" 2.0 (Stats.percentile_of_sorted a 0.25)

let test_reservoir_percentile () =
  let r = Stats.Reservoir.create ~capacity:1000 (Prng.create 3) in
  for i = 1 to 10_000 do
    Stats.Reservoir.add r (Float.of_int (i mod 100))
  done;
  let p50 = Stats.Reservoir.percentile r 0.5 in
  check Alcotest.bool "median near 50" true (Float.abs (p50 -. 50.0) < 10.0);
  check Alcotest.int "count tracks stream" 10_000 (Stats.Reservoir.count r)

let test_histogram () =
  let h = Stats.Histogram.create ~lo:0.0 ~hi:10.0 ~buckets:5 in
  List.iter (Stats.Histogram.add h) [ -1.0; 0.0; 1.9; 2.0; 9.9; 10.0; 42.0 ];
  let counts = Stats.Histogram.bucket_counts h in
  check Alcotest.int "underflow" 1 counts.(0);
  check Alcotest.int "first bucket" 2 counts.(1);
  check Alcotest.int "second bucket" 1 counts.(2);
  check Alcotest.int "last bucket" 1 counts.(5);
  check Alcotest.int "overflow" 2 counts.(6);
  check Alcotest.int "total" 7 (Stats.Histogram.count h)

let test_timeseries () =
  let ts = Stats.Timeseries.create ~bucket_width:10.0 ~n_buckets:3 in
  Stats.Timeseries.record ts ~time:5.0 2.0;
  Stats.Timeseries.record ts ~time:5.0 4.0;
  Stats.Timeseries.record ts ~time:25.0 6.0;
  Stats.Timeseries.record ts ~time:99.0 1.0;
  (* clamped to last *)
  let counts = Stats.Timeseries.counts ts in
  check (Alcotest.array Alcotest.int) "counts" [| 2; 0; 2 |] counts;
  let means = Stats.Timeseries.means ts in
  check (Alcotest.float 1e-9) "bucket 0 mean" 3.0 means.(0);
  check Alcotest.bool "empty bucket mean is nan" true (Float.is_nan means.(1));
  Stats.Timeseries.record_n ts ~time:15.0 ~n:5 2.0;
  check Alcotest.int "record_n count" 5 (Stats.Timeseries.counts ts).(1);
  check (Alcotest.float 1e-9) "record_n mean" 2.0 (Stats.Timeseries.means ts).(1);
  check (Alcotest.float 1e-9) "rates" 0.2 (Stats.Timeseries.rates ts).(0)

(* --- Table ---------------------------------------------------------------- *)

let test_table_render () =
  let t = Table.create [ "a"; "bb" ] in
  Table.add_row t [ "1"; "2" ];
  Table.add_row t [ "333" ];
  let s = Table.render t in
  check Alcotest.bool "contains header" true
    (String.length s > 0 && String.sub s 0 1 = "a");
  (* Short rows are padded; rendering must have 4 lines. *)
  check Alcotest.int "line count" 4
    (List.length (String.split_on_char '\n' s))

(* --- Intmap ----------------------------------------------------------- *)

let test_intmap_basics () =
  let m = Intmap.create ~capacity:4 () in
  check Alcotest.int "empty" 0 (Intmap.length m);
  Intmap.replace m 7 "seven";
  Intmap.replace m 0 "zero";
  Intmap.replace m (-3) "minus";
  check Alcotest.int "three live" 3 (Intmap.length m);
  check Alcotest.bool "mem hit" true (Intmap.mem m 7);
  check Alcotest.bool "mem miss" false (Intmap.mem m 8);
  check (Alcotest.option Alcotest.string) "find hit" (Some "minus")
    (Intmap.find m (-3));
  check (Alcotest.option Alcotest.string) "find miss" None (Intmap.find m 99);
  Intmap.replace m 7 "SEVEN";
  check Alcotest.int "overwrite keeps length" 3 (Intmap.length m);
  check (Alcotest.option Alcotest.string) "overwrite visible" (Some "SEVEN")
    (Intmap.find m 7);
  Intmap.remove m 0;
  Intmap.remove m 0;
  check Alcotest.int "remove is idempotent" 2 (Intmap.length m);
  check Alcotest.bool "removed key gone" false (Intmap.mem m 0)

let test_intmap_sentinels_rejected () =
  let m = Intmap.create () in
  Alcotest.check_raises "min_int"
    (Invalid_argument "Intmap: min_int and min_int+1 are reserved sentinel keys")
    (fun () -> Intmap.replace m min_int ());
  Alcotest.check_raises "min_int+1"
    (Invalid_argument "Intmap: min_int and min_int+1 are reserved sentinel keys")
    (fun () -> ignore (Intmap.find m (min_int + 1)))

(* Churn through growth and tombstone reuse, mirrored against Hashtbl. *)
let test_intmap_matches_hashtbl () =
  let m = Intmap.create ~capacity:2 () in
  let h = Hashtbl.create 16 in
  let rng = Prng.create 11 in
  for _ = 1 to 5_000 do
    let k = Prng.int rng 400 - 200 in
    if Prng.int rng 4 = 0 then begin
      Intmap.remove m k;
      Hashtbl.remove h k
    end
    else begin
      let v = Prng.int rng 1_000_000 in
      Intmap.replace m k v;
      Hashtbl.replace h k v
    end
  done;
  check Alcotest.int "same cardinality" (Hashtbl.length h) (Intmap.length m);
  for k = -200 to 200 do
    check (Alcotest.option Alcotest.int)
      (Printf.sprintf "key %d agrees" k)
      (Hashtbl.find_opt h k) (Intmap.find m k)
  done

let test_table_cells () =
  check Alcotest.string "float" "1.50" (Table.cell_float 1.5);
  check Alcotest.string "nan" "-" (Table.cell_float nan);
  check Alcotest.string "decimals" "1.500" (Table.cell_float ~decimals:3 1.5);
  check Alcotest.string "int" "42" (Table.cell_int 42)

(* --- JSON --------------------------------------------------------------- *)

let compact j =
  let buf = Buffer.create 64 in
  Json.to_buffer buf j;
  Buffer.contents buf

let json_result =
  Alcotest.result
    (Alcotest.testable (fun ppf j -> Format.pp_print_string ppf (compact j)) ( = ))
    Alcotest.string

let test_json_numbers () =
  check Alcotest.string "integral" "[3,-7,1000000000000000,0.1,1.5e+300]"
    (compact (Json.List Json.[ Num 3.; Num (-7.); Num 1e15; Num 0.1; Num 1.5e300 ]));
  check Alcotest.string "2^53 - 1 stays an integer" "9007199254740991"
    (compact (Json.Num 9007199254740991.));
  check Alcotest.string "non-finite prints null" "[null,null,null]"
    (compact (Json.List Json.[ Num nan; Num infinity; Num neg_infinity ]));
  check Alcotest.string "pretty non-finite prints null" "null\n"
    (Json.to_string (Json.Num nan));
  check Alcotest.bool "1e400 is out of range" true
    (Result.is_error (Json.of_string "1e400"));
  check (Alcotest.option Alcotest.int) "to_int integral" (Some 42)
    (Json.to_int (Json.Num 42.));
  check (Alcotest.option Alcotest.int) "to_int fractional" None
    (Json.to_int (Json.Num 3.5));
  check (Alcotest.option Alcotest.int) "to_int on a string" None
    (Json.to_int (Json.Str "3"))

let test_json_unicode_escapes () =
  check json_result "BMP escape decodes to UTF-8" (Ok (Json.Str "caf\xc3\xa9"))
    (Json.of_string {|"caf\u00e9"|});
  check json_result "surrogate pair decodes to one code point"
    (Ok (Json.Str "\xf0\x9f\x98\x80"))
    (Json.of_string {|"\ud83d\ude00"|});
  List.iter
    (fun doc ->
      check Alcotest.bool (doc ^ " is an error") true
        (Result.is_error (Json.of_string doc)))
    [ {|"\ud800"|}; {|"\udc00"|}; {|"\ud800\u0041"|}; {|"\u12"|}; {|"\u+123"|} ]

(* Finite trees only: JSON has no NaN or infinity. *)
let json_gen =
  let open QCheck2.Gen in
  let num =
    oneof
      [
        map float_of_int (int_range (-1_000_000_000) 1_000_000_000);
        map (fun f -> if Float.is_finite f then f else 0.) float;
      ]
  in
  let leaf =
    oneof
      [
        pure Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun f -> Json.Num f) num;
        map (fun s -> Json.Str s) string_small;
      ]
  in
  sized_size (int_bound 20)
  @@ fix (fun self n ->
         if n = 0 then leaf
         else
           oneof
             [
               leaf;
               map (fun l -> Json.List l) (list_size (int_bound 4) (self (n / 2)));
               map
                 (fun l -> Json.Obj l)
                 (list_size (int_bound 4) (pair string_small (self (n / 2))));
             ])

let test_json_round_trip =
  qtest "json: both renderings parse back" json_gen (fun t ->
      Json.of_string (Json.to_string t) = Ok t && Json.of_string (compact t) = Ok t)

(* Byte substitutions, deletions and insertions of a valid document,
   biased towards JSON's structural and escape characters. *)
let test_json_parser_total =
  let edit =
    QCheck2.Gen.(
      triple (int_bound 2) nat
        (oneof [ char; oneofl [ '\\'; 'u'; '"'; '['; '{'; ':'; ','; 'D'; '8'; 'e'; '-'; '.' ] ]))
  in
  qtest ~count:500 "json: mutated documents never raise"
    QCheck2.Gen.(pair json_gen (list_size (int_range 1 6) edit))
    (fun (t, edits) ->
      let apply s (kind, pos, c) =
        let n = String.length s in
        let i = if n = 0 then 0 else pos mod n in
        match kind with
        | 0 when n > 0 -> String.mapi (fun j x -> if j = i then c else x) s
        | 1 when n > 0 -> String.sub s 0 i ^ String.sub s (i + 1) (n - i - 1)
        | _ -> String.sub s 0 i ^ String.make 1 c ^ String.sub s i (n - i)
      in
      let doc = List.fold_left apply (Json.to_string t) edits in
      match Json.of_string doc with Ok _ | Error _ -> true)

let () =
  Alcotest.run "util"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "named streams" `Quick test_prng_named_stable;
          test_prng_int_bounds;
          test_prng_int_in_bounds;
          Alcotest.test_case "uniformity" `Quick test_prng_uniformity;
          Alcotest.test_case "float range" `Quick test_prng_float_range;
          test_shuffle_is_permutation;
          test_sample_distinct;
          Alcotest.test_case "zipf skew" `Quick test_zipf_skew;
          Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
        ] );
      ( "heap",
        [
          test_heap_sorted_drain;
          Alcotest.test_case "to_sorted_list" `Quick test_heap_to_sorted_non_destructive;
          Alcotest.test_case "peek/pop/clear" `Quick test_heap_peek_pop;
          Alcotest.test_case "indexed basics" `Quick test_indexed_heap_basics;
          Alcotest.test_case "indexed adjust down" `Quick test_indexed_heap_adjust_down;
          test_indexed_heap_random;
          test_flat_heap_matches_poly;
        ] );
      ("union_find", [ Alcotest.test_case "basics" `Quick test_union_find ]);
      ( "intmap",
        [
          Alcotest.test_case "basics" `Quick test_intmap_basics;
          Alcotest.test_case "sentinel keys rejected" `Quick
            test_intmap_sentinels_rejected;
          Alcotest.test_case "churn matches Hashtbl" `Quick
            test_intmap_matches_hashtbl;
        ] );
      ( "stats",
        [
          Alcotest.test_case "online mean/var" `Quick test_online_mean_var;
          test_online_merge;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "reservoir" `Quick test_reservoir_percentile;
          Alcotest.test_case "histogram" `Quick test_histogram;
          Alcotest.test_case "timeseries" `Quick test_timeseries;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "cells" `Quick test_table_cells;
        ] );
      ( "json",
        [
          Alcotest.test_case "numbers" `Quick test_json_numbers;
          Alcotest.test_case "unicode escapes" `Quick test_json_unicode_escapes;
          test_json_round_trip;
          test_json_parser_total;
        ] );
    ]
