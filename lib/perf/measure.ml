(* Fixed-work benchmark measurement.

   Statistical harnesses with adaptive iteration counts (Bechamel's OLS)
   make run-to-run comparison noisy and their results awkward to
   serialize.  Regression tracking wants the opposite trade-off: a fixed
   amount of work, repeated a fixed number of times, timed with the monotonic clock, with the best repetition
   reported (the minimum is the standard robust estimator for "how fast
   can this go" — outliers from preemption only ever slow a run down). *)

type result = {
  name : string;
  ops_per_sec : float;
  ns_per_op : float;
  alloc_bytes_per_op : float;
  minor_words_per_op : float;
  events_fired : int;
  domains : int;
  scaling_efficiency : float option;
}

let run ~name ?(warmup = 1) ?(domains = 1) ~reps ~ops_per_rep
    ?(events = fun () -> 0) f =
  if reps <= 0 then invalid_arg "Measure.run: reps must be positive";
  if ops_per_rep <= 0 then invalid_arg "Measure.run: ops_per_rep must be positive";
  for _ = 1 to warmup do
    f ()
  done;
  let best_ns = ref max_int in
  let total_alloc = ref 0.0 in
  let total_minor = ref 0.0 in
  for _ = 1 to reps do
    let a0 = Gc.allocated_bytes () in
    let m0 = Gc.minor_words () in
    let t0 = Clock.now_ns () in
    f ();
    let dt = Clock.elapsed_ns ~since:t0 in
    let dm = Gc.minor_words () -. m0 in
    let da = Gc.allocated_bytes () -. a0 in
    if dt < !best_ns then best_ns := dt;
    total_alloc := !total_alloc +. da;
    total_minor := !total_minor +. dm
  done;
  (* Clamp to 1ns: a sub-tick measurement must not divide by zero. *)
  let best_ns = float_of_int (max 1 !best_ns) in
  let ops = float_of_int ops_per_rep in
  let reps_f = float_of_int reps in
  {
    name;
    ops_per_sec = ops /. (best_ns /. 1e9);
    ns_per_op = best_ns /. ops;
    (* Allocation is averaged over every repetition, not the fastest
       one: bytes are deterministic per repetition, so the average is
       exact and unaffected by timer noise. *)
    alloc_bytes_per_op = !total_alloc /. reps_f /. ops;
    (* Minor words are what the H00x hot-path budget gates: the direct
       count of minor-heap allocation, in words, the unit Gc reports
       natively (alloc_bytes also folds in major allocation). *)
    minor_words_per_op = !total_minor /. reps_f /. ops;
    events_fired = events ();
    domains;
    scaling_efficiency = None;
  }

let with_scaling r ~efficiency = { r with scaling_efficiency = Some efficiency }

let pp_row fmt r =
  Format.fprintf fmt "%-16s %12.0f ops/s %10.1f ns/op %10.1f B/op %9.2f w/op"
    r.name r.ops_per_sec r.ns_per_op r.alloc_bytes_per_op
    r.minor_words_per_op;
  if r.events_fired > 0 then Format.fprintf fmt " %10d events" r.events_fired;
  if r.domains > 1 then Format.fprintf fmt " %3dd" r.domains;
  match r.scaling_efficiency with
  | Some e -> Format.fprintf fmt " eff=%.2f" e
  | None -> ()
