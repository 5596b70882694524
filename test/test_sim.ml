(* Tests for lazyctrl.sim: time arithmetic and the event engine. *)

open Lazyctrl_sim

let check = Alcotest.check
let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* --- Time ------------------------------------------------------------- *)

let test_time_constructors () =
  check Alcotest.int "us" 1_000 (Time.to_ns (Time.of_us 1));
  check Alcotest.int "ms" 1_000_000 (Time.to_ns (Time.of_ms 1));
  check Alcotest.int "sec" 1_000_000_000 (Time.to_ns (Time.of_sec 1));
  check Alcotest.int "min" 60_000_000_000 (Time.to_ns (Time.of_min 1));
  check Alcotest.int "hour" 3_600_000_000_000 (Time.to_ns (Time.of_hour 1));
  check Alcotest.int "float sec" 1_500_000_000 (Time.to_ns (Time.of_float_sec 1.5))

let test_time_arithmetic () =
  let a = Time.of_ms 5 and b = Time.of_ms 3 in
  check Alcotest.int "add" 8_000_000 (Time.to_ns (Time.add a b));
  check Alcotest.int "sub" 2_000_000 (Time.to_ns (Time.sub a b));
  check Alcotest.int "diff symmetric" 2_000_000 (Time.to_ns (Time.diff b a));
  check Alcotest.int "scale" 10_000_000 (Time.to_ns (Time.scale a 2.0));
  Alcotest.check_raises "sub underflow"
    (Invalid_argument "Time.sub: negative result") (fun () ->
      ignore (Time.sub b a));
  Alcotest.check_raises "negative ns" (Invalid_argument "Time.of_ns: negative")
    (fun () -> ignore (Time.of_ns (-1)))

let test_time_compare () =
  check Alcotest.bool "lt" true Time.(Time.of_ms 1 < Time.of_ms 2);
  check Alcotest.bool "ge" true Time.(Time.of_ms 2 >= Time.of_ms 2);
  check Alcotest.int "min" 1 (Time.to_ns (Time.min (Time.of_ns 1) (Time.of_ns 2)));
  check Alcotest.int "max" 2 (Time.to_ns (Time.max (Time.of_ns 1) (Time.of_ns 2)))

let test_time_conversions =
  qtest "float roundtrip" QCheck2.Gen.(int_range 0 1_000_000_000) (fun ns ->
      let t = Time.of_ns ns in
      Float.abs (Time.to_float_sec t -. (Float.of_int ns /. 1e9)) < 1e-12)

(* --- Engine ------------------------------------------------------------ *)

let test_engine_order () =
  let e = Engine.create () in
  let log = ref [] in
  let record tag () = log := tag :: !log in
  ignore (Engine.schedule e ~after:(Time.of_ms 3) (record "c"));
  ignore (Engine.schedule e ~after:(Time.of_ms 1) (record "a"));
  ignore (Engine.schedule e ~after:(Time.of_ms 2) (record "b"));
  Engine.run e;
  check (Alcotest.list Alcotest.string) "time order" [ "a"; "b"; "c" ]
    (List.rev !log)

let test_engine_fifo_ties () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 0 to 9 do
    ignore
      (Engine.schedule e ~after:(Time.of_ms 5) (fun () -> log := i :: !log))
  done;
  Engine.run e;
  check (Alcotest.list Alcotest.int) "FIFO among equal times"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.rev !log)

let test_engine_clock_advances () =
  let e = Engine.create () in
  let seen = ref Time.zero in
  ignore (Engine.schedule e ~after:(Time.of_ms 7) (fun () -> seen := Engine.now e));
  Engine.run e;
  check Alcotest.int "clock at event time" 7_000_000 (Time.to_ns !seen)

let test_engine_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let id = Engine.schedule e ~after:(Time.of_ms 1) (fun () -> fired := true) in
  check Alcotest.int "pending" 1 (Engine.pending e);
  Engine.cancel e id;
  check Alcotest.int "pending after cancel" 0 (Engine.pending e);
  Engine.run e;
  check Alcotest.bool "cancelled event silent" false !fired;
  (* Double cancel is a no-op. *)
  Engine.cancel e id;
  check Alcotest.int "pending stable" 0 (Engine.pending e)

let test_engine_nested_scheduling () =
  let e = Engine.create () in
  let count = ref 0 in
  let rec chain n =
    if n > 0 then
      ignore
        (Engine.schedule e ~after:(Time.of_ms 1) (fun () ->
             incr count;
             chain (n - 1)))
  in
  chain 5;
  Engine.run e;
  check Alcotest.int "chained events" 5 !count;
  check Alcotest.int "clock" 5_000_000 (Time.to_ns (Engine.now e))

let test_engine_run_until () =
  let e = Engine.create () in
  let fired = ref [] in
  ignore (Engine.schedule e ~after:(Time.of_ms 1) (fun () -> fired := 1 :: !fired));
  ignore (Engine.schedule e ~after:(Time.of_ms 10) (fun () -> fired := 10 :: !fired));
  Engine.run ~until:(Time.of_ms 5) e;
  check (Alcotest.list Alcotest.int) "only early event" [ 1 ] (List.rev !fired);
  check Alcotest.int "clock at horizon" 5_000_000 (Time.to_ns (Engine.now e));
  Engine.run e;
  check (Alcotest.list Alcotest.int) "late event eventually" [ 1; 10 ]
    (List.rev !fired)

let test_engine_every () =
  let e = Engine.create () in
  let count = ref 0 in
  let id = Engine.every e ~period:(Time.of_ms 10) (fun () -> incr count) in
  Engine.run ~until:(Time.of_ms 55) e;
  check Alcotest.int "five periods" 5 !count;
  Engine.cancel e id;
  Engine.run ~until:(Time.of_ms 200) e;
  check Alcotest.int "stopped after cancel" 5 !count

let test_engine_every_jitter () =
  let e = Engine.create () in
  let times = ref [] in
  let id =
    Engine.every e ~period:(Time.of_ms 10)
      ~jitter:(fun () -> Time.of_ms 5)
      (fun () -> times := Time.to_ns (Engine.now e) :: !times)
  in
  Engine.run ~until:(Time.of_ms 40) e;
  Engine.cancel e id;
  check (Alcotest.list Alcotest.int) "jittered periods"
    [ 15_000_000; 30_000_000 ]
    (List.rev !times)

let test_engine_every_cancel_late () =
  (* A recurrence that has re-armed many times must still honour its
     original id: one live instance in [pending], gone after cancel. *)
  let e = Engine.create () in
  let count = ref 0 in
  let id = Engine.every e ~period:(Time.of_ms 1) (fun () -> incr count) in
  Engine.run ~until:(Time.of_sec 1) e;
  check Alcotest.int "fired every ms" 1000 !count;
  check Alcotest.int "one pending instance" 1 (Engine.pending e);
  Engine.cancel e id;
  check Alcotest.int "pending after late cancel" 0 (Engine.pending e);
  Engine.run ~until:(Time.of_sec 2) e;
  check Alcotest.int "stopped for good" 1000 !count

let test_engine_cancel_after_fire () =
  (* Cancelling an id that already fired must not decrement [pending]
     (historically it double-counted) nor kill an unrelated event that
     reused the same internal slot. *)
  let e = Engine.create () in
  let id = Engine.schedule e ~after:(Time.of_ms 1) (fun () -> ()) in
  ignore (Engine.step e);
  check Alcotest.int "drained" 0 (Engine.pending e);
  let fired = ref false in
  ignore (Engine.schedule e ~after:(Time.of_ms 1) (fun () -> fired := true));
  Engine.cancel e id;
  check Alcotest.int "stale cancel is a no-op" 1 (Engine.pending e);
  Engine.run e;
  check Alcotest.bool "slot reuser still fires" true !fired;
  check Alcotest.int "pending settles at zero" 0 (Engine.pending e)

let test_engine_every_self_cancel () =
  (* A recurrence cancelling itself from inside its own callback must
     not be re-armed afterwards. *)
  let e = Engine.create () in
  let count = ref 0 in
  let id = ref None in
  let r =
    Engine.every e ~period:(Time.of_ms 1) (fun () ->
        incr count;
        if !count = 3 then Engine.cancel e (Option.get !id))
  in
  id := Some r;
  Engine.run ~until:(Time.of_ms 100) e;
  check Alcotest.int "stops at self-cancel" 3 !count;
  check Alcotest.int "nothing pending" 0 (Engine.pending e)

let test_engine_schedule_at_past () =
  let e = Engine.create () in
  ignore (Engine.schedule e ~after:(Time.of_ms 10) (fun () -> ()));
  Engine.run e;
  Alcotest.check_raises "past scheduling rejected"
    (Invalid_argument "Engine.schedule_at: time in the past") (fun () ->
      ignore (Engine.schedule_at e ~at:(Time.of_ms 1) (fun () -> ())))

let test_engine_step_and_count () =
  let e = Engine.create () in
  ignore (Engine.schedule e ~after:Time.zero (fun () -> ()));
  ignore (Engine.schedule e ~after:Time.zero (fun () -> ()));
  check Alcotest.bool "step fires" true (Engine.step e);
  check Alcotest.bool "step fires again" true (Engine.step e);
  check Alcotest.bool "queue empty" false (Engine.step e);
  check Alcotest.int "events processed" 2 (Engine.events_processed e)

(* Fuzz: random schedules (including nested ones) always fire in
   nondecreasing time order and fire exactly once. *)
let test_engine_fuzz =
  qtest ~count:100 "random schedules fire in order, exactly once"
    QCheck2.Gen.(list_size (int_range 1 40) (int_range 0 10_000))
    (fun delays ->
      let e = Engine.create () in
      let fired = ref [] in
      List.iteri
        (fun i d ->
          ignore
            (Engine.schedule e ~after:(Time.of_us d) (fun () ->
                 fired := (i, Time.to_ns (Engine.now e)) :: !fired;
                 (* Some events schedule follow-ups. *)
                 if i mod 3 = 0 then
                   ignore
                     (Engine.schedule e ~after:(Time.of_us d) (fun () ->
                          fired := (1000 + i, Time.to_ns (Engine.now e)) :: !fired)))))
        delays;
      Engine.run e;
      let times = List.rev_map snd !fired in
      let sorted = List.sort compare times in
      let follow_ups = List.length (List.filteri (fun i _ -> i mod 3 = 0) delays) in
      times = sorted
      && List.length times = List.length delays + follow_ups)

(* Events that reach one instant through different delays fire in the
   order they were scheduled, whichever lanes or heap hold them. *)
let test_engine_cross_lane_ties () =
  let e = Engine.create () in
  let log = ref [] in
  (* Eight delays, all ending at 1 ms: one lane each. *)
  for j = 0 to 7 do
    Engine.run ~until:(Time.of_us (100 * j)) e;
    ignore
      (Engine.schedule e
         ~after:(Time.of_us (1000 - (100 * j)))
         (fun () -> log := j :: !log))
  done;
  Engine.run e;
  check (Alcotest.list Alcotest.int) "lane against lane"
    (List.init 8 Fun.id) (List.rev !log)

let test_engine_fallback_ties () =
  let e = Engine.create () in
  let log = ref [] in
  (* 200 distinct delays pending at once, more than the engine has
     lanes: the later ones go to the fallback heap. Filler k fires at
     10 ms + 10k us. *)
  let n = 200 in
  let at k = 10_000 + (10 * k) in
  for k = 0 to n - 1 do
    ignore
      (Engine.schedule e ~after:(Time.of_us (at k)) (fun () ->
           log := (k, 0) :: !log))
  done;
  (* 10 us later, tie event k reuses filler k-1's delay to reach filler
     k's instant: it joins filler k-1's lane when that has one, the
     fallback when it has none, so lane and fallback entries tie both
     ways round. *)
  Engine.run ~until:(Time.of_us 10) e;
  for k = 1 to n - 1 do
    ignore
      (Engine.schedule e ~after:(Time.of_us (at (k - 1))) (fun () ->
           log := (k, 1) :: !log))
  done;
  Engine.run e;
  let expected =
    (0, 0) :: List.concat (List.init (n - 1) (fun k -> [ (k + 1, 0); (k + 1, 1) ]))
  in
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "filler before its tie" expected (List.rev !log)

(* A reference scheduler for the exactness property: it keeps every live
   event in a list and always fires the least (time, scheduling order).
   Both it and the engine sit behind [sched], whose schedule and every
   return a cancel thunk. *)
type sched = {
  now : unit -> int;
  schedule : after:int -> (unit -> unit) -> unit -> unit;
  every : period:int -> jitter:(unit -> int) option -> (unit -> unit) -> unit -> unit;
  run_until : int -> unit;
  run : unit -> unit;
  pending : unit -> int;
}

let engine_sched () =
  let e = Engine.create () in
  {
    now = (fun () -> Time.to_ns (Engine.now e));
    schedule =
      (fun ~after f ->
        let id = Engine.schedule e ~after:(Time.of_ns after) f in
        fun () -> Engine.cancel e id);
    every =
      (fun ~period ~jitter f ->
        let jitter = Option.map (fun j () -> Time.of_ns (j ())) jitter in
        let id = Engine.every e ~period:(Time.of_ns period) ?jitter f in
        fun () -> Engine.cancel e id);
    run_until = (fun h -> Engine.run ~until:(Time.of_ns h) e);
    run = (fun () -> Engine.run e);
    pending = (fun () -> Engine.pending e);
  }

type ref_event = { r_time : int; r_seq : int; r_fire : unit -> unit }

let reference_sched () =
  let clock = ref 0 and next_seq = ref 0 and live = ref [] in
  let push ~after f =
    let seq = !next_seq in
    incr next_seq;
    live := { r_time = !clock + after; r_seq = seq; r_fire = f } :: !live;
    seq
  in
  let remove seq = live := List.filter (fun ev -> ev.r_seq <> seq) !live in
  let least () =
    List.fold_left
      (fun best ev ->
        match best with
        | Some b when (b.r_time, b.r_seq) < (ev.r_time, ev.r_seq) -> best
        | _ -> Some ev)
      None !live
  in
  let rec drain h =
    match least () with
    | Some ev when ev.r_time <= h ->
        remove ev.r_seq;
        clock := ev.r_time;
        ev.r_fire ();
        drain h
    | _ -> ()
  in
  let every ~period ~jitter f =
    (* The armed instance's seq, or -1 while the callback runs. *)
    let armed = ref (-1) and stopped = ref false in
    let rec arm () =
      let after = period + match jitter with None -> 0 | Some j -> j () in
      armed :=
        push ~after (fun () ->
            armed := -1;
            f ();
            if not !stopped then arm ())
    in
    arm ();
    fun () ->
      stopped := true;
      if !armed >= 0 then remove !armed
  in
  {
    now = (fun () -> !clock);
    schedule =
      (fun ~after f ->
        let seq = push ~after f in
        fun () -> remove seq);
    every;
    run_until =
      (fun h ->
        drain h;
        clock := max !clock h);
    run = (fun () -> drain max_int);
    pending = (fun () -> List.length !live);
  }

(* About 100 delays on a 10 us grid, so events often tie at one instant
   through different delays: half the draws take one of four hot
   delays, 30% one of the pool's 100 (more than the engine has lanes),
   the rest a uniform one. *)
let delay_pool = Array.init 100 (fun i -> 10_000 * (1 + ((i * 37) mod 100)))

let pick_delay rng =
  match Lazyctrl_util.Prng.int rng 10 with
  | 0 | 1 | 2 | 3 | 4 -> delay_pool.(Lazyctrl_util.Prng.int rng 4)
  | 5 | 6 | 7 -> delay_pool.(Lazyctrl_util.Prng.int rng 100)
  | _ -> 10_000 * Lazyctrl_util.Prng.int rng 300

(* [Sched n] schedules n events at one drawn delay (a burst fills a
   lane's ring past its first size); [Every jittered] starts a
   recurrence; [Cancel k] cancels the k-th handle (mod the count), which
   may have fired already; [Until h] runs to h ns past the clock. *)
type op = Sched of int | Every of bool | Cancel of int | Until of int

(* Runs one program and returns what it saw: each firing's (event id,
   time), and (-1, pending) after each [run ~until]. Delays, jitter and
   the callbacks' own schedules and cancels all draw from one stream,
   so both schedulers see the same program as long as they fire in the
   same order. *)
let run_program sched (seed, ops) =
  let rng = Lazyctrl_util.Prng.create seed in
  let seen = ref [] in
  let cancels = Hashtbl.create 64 and n_ids = ref 0 in
  let cancel_some k = if !n_ids > 0 then (Hashtbl.find cancels (k mod !n_ids)) () in
  let rec fired id () =
    seen := (id, sched.now ()) :: !seen;
    if !n_ids < 2_000 then
      match Lazyctrl_util.Prng.int rng 6 with
      | 0 | 1 -> add (sched.schedule ~after:(pick_delay rng))
      | 2 -> cancel_some (Lazyctrl_util.Prng.int rng 1_000)
      | _ -> ()
  and add make =
    let id = !n_ids in
    incr n_ids;
    Hashtbl.replace cancels id (make (fired id))
  in
  List.iter
    (function
      | Sched n ->
          let after = pick_delay rng in
          for _ = 1 to n do
            add (sched.schedule ~after)
          done
      | Every jittered ->
          let period = 500_000 + (10_000 * Lazyctrl_util.Prng.int rng 51) in
          let jitter =
            if jittered then
              Some (fun () -> 10_000 * Lazyctrl_util.Prng.int rng 4)
            else None
          in
          add (sched.every ~period ~jitter)
      | Cancel k -> cancel_some k
      | Until h ->
          sched.run_until (sched.now () + h);
          seen := (-1, sched.pending ()) :: !seen)
    ops;
  for id = 0 to !n_ids - 1 do
    (Hashtbl.find cancels id) ()
  done;
  sched.run ();
  List.rev !seen

let program_gen =
  let open QCheck2.Gen in
  let op =
    frequency
      [
        (6, return (Sched 1));
        (1, map (fun n -> Sched n) (int_range 10 40));
        (1, map (fun j -> Every j) bool);
        (2, map (fun k -> Cancel k) (int_bound 1_000));
        (1, map (fun k -> Until (10_000 * k)) (int_bound 500));
      ]
  in
  pair (int_bound 1_000_000) (list_size (int_range 1 400) op)

let test_engine_matches_reference =
  qtest ~count:100 "matches a least-(time, order) reference" program_gen
    (fun program ->
      run_program (engine_sched ()) program
      = run_program (reference_sched ()) program)

let () =
  Alcotest.run "sim"
    [
      ( "time",
        [
          Alcotest.test_case "constructors" `Quick test_time_constructors;
          Alcotest.test_case "arithmetic" `Quick test_time_arithmetic;
          Alcotest.test_case "compare" `Quick test_time_compare;
          test_time_conversions;
        ] );
      ( "engine",
        [
          Alcotest.test_case "time order" `Quick test_engine_order;
          Alcotest.test_case "FIFO ties" `Quick test_engine_fifo_ties;
          Alcotest.test_case "clock advances" `Quick test_engine_clock_advances;
          Alcotest.test_case "cancel" `Quick test_engine_cancel;
          Alcotest.test_case "nested scheduling" `Quick test_engine_nested_scheduling;
          Alcotest.test_case "run until" `Quick test_engine_run_until;
          Alcotest.test_case "every" `Quick test_engine_every;
          Alcotest.test_case "every with jitter" `Quick test_engine_every_jitter;
          Alcotest.test_case "every cancel after 1000 firings" `Quick
            test_engine_every_cancel_late;
          Alcotest.test_case "cancel after fire" `Quick
            test_engine_cancel_after_fire;
          Alcotest.test_case "every self-cancel" `Quick
            test_engine_every_self_cancel;
          Alcotest.test_case "past rejected" `Quick test_engine_schedule_at_past;
          Alcotest.test_case "step/count" `Quick test_engine_step_and_count;
          test_engine_fuzz;
          Alcotest.test_case "ties across lanes" `Quick
            test_engine_cross_lane_ties;
          Alcotest.test_case "ties between lanes and fallback" `Quick
            test_engine_fallback_ties;
          test_engine_matches_reference;
        ] );
    ]
