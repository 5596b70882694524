(* Slot-table scheduler over a flat (time, seq) min-heap.

   Events live in parallel int/closure arrays indexed by slot; the heap
   holds only integer triples, so the scheduling hot path allocates
   nothing beyond the user's callback closure. Handles are tagged ints:
   a positive id packs (generation, slot) for a one-shot event, a
   negative id packs (generation, index) into the recurrence table.
   Generations make stale handles (cancel after fire, double cancel)
   harmless, which also fixes two bugs in the previous boxed-event
   implementation: cancelling an already-fired event no longer
   double-decrements [live], and cancelling a recurrence from inside its
   own callback now actually stops it. *)

module Flat = Lazyctrl_util.Heap.Flat

let st_free = 0
let st_armed = 1
let st_cancelled = 2

(* 31 bits of slot index, 31 bits of (wrapping) generation: ids stay
   positive in a 63-bit int. A generation collision needs 2^31 reuses of
   one slot between taking a handle and cancelling it. *)
let slot_bits = 31
let slot_mask = (1 lsl slot_bits) - 1
let gen_mask = (1 lsl 31) - 1

type event_id = int

let nop () = ()

type t = {
  mutable clock : Time.t;
  heap : Flat.t;
  (* Event slots. [s_recur.(slot)] is the owning recurrence index, or -1
     for a one-shot (whose closure is in [s_action]). *)
  mutable s_state : int array;
  mutable s_gen : int array;
  mutable s_action : (unit -> unit) array;
  mutable s_recur : int array;
  mutable s_free : int array; (* stack of free slots *)
  mutable s_free_top : int;
  mutable s_next : int; (* high-water mark *)
  (* Recurrences. [r_slot.(i)] is the armed instance's slot, or -1 while
     its callback is running (so self-cancellation is observable). *)
  mutable r_state : int array;
  mutable r_gen : int array;
  mutable r_period : int array; (* ns *)
  mutable r_jitter : (unit -> Time.t) option array;
  mutable r_f : (unit -> unit) array;
  mutable r_slot : int array;
  mutable r_free : int array;
  mutable r_free_top : int;
  mutable r_next : int;
  mutable next_seq : int;
  mutable live : int;
  mutable fired : int;
}

let create () =
  let scap = 64 and rcap = 8 in
  {
    clock = Time.zero;
    heap = Flat.create ~capacity:scap ();
    s_state = Array.make scap st_free;
    s_gen = Array.make scap 0;
    s_action = Array.make scap nop;
    s_recur = Array.make scap (-1);
    s_free = Array.make scap 0;
    s_free_top = 0;
    s_next = 0;
    r_state = Array.make rcap st_free;
    r_gen = Array.make rcap 0;
    r_period = Array.make rcap 0;
    r_jitter = Array.make rcap None;
    r_f = Array.make rcap nop;
    r_slot = Array.make rcap (-1);
    r_free = Array.make rcap 0;
    r_free_top = 0;
    r_next = 0;
    next_seq = 0;
    live = 0;
    fired = 0;
  }

let now t = t.clock

let grow_slots t =
  let cap = Array.length t.s_state in
  let ncap = 2 * cap in
  let copy make a =
    let n = Array.make ncap (make ()) in
    Array.blit a 0 n 0 cap;
    n
  in
  t.s_state <- copy (fun () -> st_free) t.s_state;
  t.s_gen <- copy (fun () -> 0) t.s_gen;
  t.s_action <- copy (fun () -> nop) t.s_action;
  t.s_recur <- copy (fun () -> -1) t.s_recur;
  t.s_free <- copy (fun () -> 0) t.s_free

let alloc_slot t =
  if t.s_free_top > 0 then begin
    t.s_free_top <- t.s_free_top - 1;
    t.s_free.(t.s_free_top)
  end
  else begin
    if t.s_next = Array.length t.s_state then grow_slots t;
    let s = t.s_next in
    t.s_next <- s + 1;
    s
  end

let free_slot t slot =
  t.s_state.(slot) <- st_free;
  t.s_gen.(slot) <- (t.s_gen.(slot) + 1) land gen_mask;
  t.s_action.(slot) <- nop;
  t.s_recur.(slot) <- -1;
  t.s_free.(t.s_free_top) <- slot;
  t.s_free_top <- t.s_free_top + 1

let grow_recurs t =
  let cap = Array.length t.r_state in
  let ncap = 2 * cap in
  let copy make a =
    let n = Array.make ncap (make ()) in
    Array.blit a 0 n 0 cap;
    n
  in
  t.r_state <- copy (fun () -> st_free) t.r_state;
  t.r_gen <- copy (fun () -> 0) t.r_gen;
  t.r_period <- copy (fun () -> 0) t.r_period;
  t.r_jitter <- copy (fun () -> None) t.r_jitter;
  t.r_f <- copy (fun () -> nop) t.r_f;
  t.r_slot <- copy (fun () -> -1) t.r_slot;
  t.r_free <- copy (fun () -> 0) t.r_free

let alloc_recur t =
  if t.r_free_top > 0 then begin
    t.r_free_top <- t.r_free_top - 1;
    t.r_free.(t.r_free_top)
  end
  else begin
    if t.r_next = Array.length t.r_state then grow_recurs t;
    let r = t.r_next in
    t.r_next <- r + 1;
    r
  end

let free_recur t ridx =
  t.r_state.(ridx) <- st_free;
  t.r_gen.(ridx) <- (t.r_gen.(ridx) + 1) land gen_mask;
  t.r_jitter.(ridx) <- None;
  t.r_f.(ridx) <- nop;
  t.r_slot.(ridx) <- -1;
  t.r_free.(t.r_free_top) <- ridx;
  t.r_free_top <- t.r_free_top + 1

let push_event t ~(at : Time.t) slot =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  t.live <- t.live + 1;
  Flat.push t.heap ~time:(at :> int) ~seq ~payload:slot

let schedule_at t ~at f =
  if Time.(at < t.clock) then invalid_arg "Engine.schedule_at: time in the past";
  let slot = alloc_slot t in
  t.s_state.(slot) <- st_armed;
  t.s_action.(slot) <- f;
  push_event t ~at slot;
  (t.s_gen.(slot) lsl slot_bits) lor slot

let schedule t ~after f = schedule_at t ~at:(Time.add t.clock after) f

type post = at:Time.t -> (unit -> unit) -> unit

(* A closure of arity two, so a call through it applies directly. *)
let post t =
  let post ~at f = ignore (schedule_at t ~at f) in
  post

let arm_recur t ridx =
  let delay =
    match t.r_jitter.(ridx) with
    | None -> t.r_period.(ridx)
    | Some j -> (Time.add (Time.of_ns t.r_period.(ridx)) (j ()) :> int)
  in
  let at = Time.add t.clock (Time.of_ns delay) in
  let slot = alloc_slot t in
  t.s_state.(slot) <- st_armed;
  t.s_recur.(slot) <- ridx;
  t.r_slot.(ridx) <- slot;
  push_event t ~at slot

let every t ~(period : Time.t) ?jitter f =
  let ridx = alloc_recur t in
  t.r_state.(ridx) <- st_armed;
  t.r_period.(ridx) <- (period :> int);
  t.r_jitter.(ridx) <- jitter;
  t.r_f.(ridx) <- f;
  arm_recur t ridx;
  -(1 + ((t.r_gen.(ridx) lsl slot_bits) lor ridx))

let cancel t id =
  if id >= 0 then begin
    let slot = id land slot_mask and gen = id lsr slot_bits in
    if
      slot < t.s_next
      && t.s_gen.(slot) = gen
      && t.s_state.(slot) = st_armed
      && t.s_recur.(slot) < 0
    then begin
      t.s_state.(slot) <- st_cancelled;
      t.live <- t.live - 1
    end
  end
  else begin
    let v = -id - 1 in
    let ridx = v land slot_mask and gen = v lsr slot_bits in
    if ridx < t.r_next && t.r_gen.(ridx) = gen && t.r_state.(ridx) = st_armed
    then begin
      t.r_state.(ridx) <- st_cancelled;
      let slot = t.r_slot.(ridx) in
      if slot >= 0 then begin
        (* An instance is armed: kill it and retire the recurrence now.
           Otherwise the callback is mid-flight and [step] retires it
           when the callback returns. *)
        t.s_state.(slot) <- st_cancelled;
        t.live <- t.live - 1;
        free_recur t ridx
      end
    end
  end

let pending t = t.live

(* Direct recursion over cancelled tombstones: a local [let rec] helper
   here would allocate one closure per call, on the hottest loop in the
   simulator (hp-engine-step). *)
let rec step t =
  if Flat.is_empty t.heap then false
  else begin
    let slot = Flat.min_payload t.heap in
    if t.s_state.(slot) = st_cancelled then begin
      Flat.remove_min t.heap;
      free_slot t slot;
      step t
    end
    else begin
      let time_ns = Flat.min_time t.heap in
      Flat.remove_min t.heap;
      t.clock <- Time.of_ns time_ns;
      t.live <- t.live - 1;
      t.fired <- t.fired + 1;
      let ridx = t.s_recur.(slot) in
      if ridx < 0 then begin
        let f = t.s_action.(slot) in
        free_slot t slot;
        f ()
      end
      else begin
        free_slot t slot;
        t.r_slot.(ridx) <- -1;
        (t.r_f.(ridx)) ();
        (* The callback may have cancelled its own recurrence (or the
           recurrence arrays may have grown under us) — re-read. *)
        if t.r_state.(ridx) = st_armed then arm_recur t ridx
        else if t.r_state.(ridx) = st_cancelled then free_recur t ridx
      end;
      true
    end
  end

let run ?until t =
  match until with
  | None -> while step t do () done
  | Some horizon ->
      let horizon_ns = Time.to_ns horizon in
      let continue = ref true in
      while !continue do
        if Flat.is_empty t.heap then continue := false
        else begin
          let slot = Flat.min_payload t.heap in
          if t.s_state.(slot) = st_cancelled then begin
            Flat.remove_min t.heap;
            free_slot t slot
          end
          else if Flat.min_time t.heap > horizon_ns then continue := false
          else ignore (step t)
        end
      done;
      if Time.(t.clock < horizon) then t.clock <- horizon

let events_processed t = t.fired

(* Direct recursion over cancelled tombstones, same as [step]. *)
let rec next_time t =
  if Flat.is_empty t.heap then None
  else begin
    let slot = Flat.min_payload t.heap in
    if t.s_state.(slot) = st_cancelled then begin
      Flat.remove_min t.heap;
      free_slot t slot;
      next_time t
    end
    else Some (Time.of_ns (Flat.min_time t.heap))
  end
