(* Slot-table scheduler over delay-keyed FIFO lanes.

   Events live in parallel int/closure arrays indexed by slot; the queue
   holds only integer triples (time, seq, slot), so the scheduling hot
   path allocates nothing beyond the user's callback closure. Handles
   are tagged ints: a positive id packs (generation, slot) for a
   one-shot event, a negative id packs (generation, index) into the
   recurrence table. Generations make stale handles (cancel after fire,
   double cancel) harmless, which also fixes two bugs in the previous
   boxed-event implementation: cancelling an already-fired event no
   longer double-decrements [live], and cancelling a recurrence from
   inside its own callback now actually stops it.

   The queue rests on one invariant: the clock never decreases. [step]
   moves it to the least pending entry's time, and [run ~until] raises
   it to a horizon that no pending entry precedes. As [seq] also rises
   with every push, the pushes made at one delay [at - clock] arrive in
   ascending (time, seq) order, so a FIFO that holds only them is a
   sorted run. The queue keeps up to [lanes] such FIFOs, each keyed by
   one delay, with a small [Flat] heap of the non-empty lanes ordered by
   their heads; a push whose delay finds no lane goes to a [Flat]
   fallback heap. The lesser of the two heap roots is the (time, seq)
   minimum over every pending entry, the very entry a single heap over
   all of them would pop, so events fire in the same order and at the
   same clock, and cancelled tombstones are dropped at the same points. *)

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

(* A delay hashes to a start lane and probes [probes] lanes from there.
   A lane takes a new delay only while it is empty. *)
let lanes = 64
let lane_mask = lanes - 1
let probes = 4
let ring_cap0 = 8

type t = {
  mutable clock : Time.t;
  (* Lane [l] is a ring of (time, seq, slot) triples: [l_len.(l)] of
     them from triple index [l_head.(l)], in a power-of-two ring of
     [l_mask.(l) + 1] triples, allocated on the lane's first push. *)
  l_key : int array; (* the delay the lane carries; -1 before first use *)
  l_ring : int array array;
  l_head : int array;
  l_len : int array;
  l_mask : int array;
  heads : Flat.t; (* the non-empty lanes, by head (time, seq) *)
  fallback : Flat.t; (* pushes whose delay found no lane *)
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
    l_key = Array.make lanes (-1);
    l_ring = Array.make lanes [||];
    l_head = Array.make lanes 0;
    l_len = Array.make lanes 0;
    l_mask = Array.make lanes 0;
    heads = Flat.create ~capacity:lanes ();
    fallback = Flat.create ~capacity:scap ();
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

(* Multiplicative hash: a delay's start lane is the top six bits of
   its product with an odd constant. *)
let lane_of_delay d = (d * 0x2545F4914F6CDD1D) lsr 57

(* The lane for delay [d]: the probed lane already keyed [d], else the
   first empty probed lane, re-keyed to [d], else -1. *)
let rec find_lane t d l k empty =
  if k = 0 then begin
    if empty >= 0 then t.l_key.(empty) <- d;
    empty
  end
  else if t.l_key.(l) = d then l
  else
    find_lane t d ((l + 1) land lane_mask) (k - 1)
      (if empty < 0 && t.l_len.(l) = 0 then l else empty)

(* Doubles lane [l]'s full ring (or makes its first one), unrolled so
   the head sits at triple 0. *)
let grow_ring t l =
  let old = t.l_ring.(l) in
  let n = Array.length old in
  let ring = Array.make (if n = 0 then 3 * ring_cap0 else 2 * n) 0 in
  let h = 3 * t.l_head.(l) in
  Array.blit old h ring 0 (n - h);
  Array.blit old 0 ring (n - h) h;
  t.l_ring.(l) <- ring;
  t.l_head.(l) <- 0;
  t.l_mask.(l) <- (Array.length ring / 3) - 1;
  ring

let lane_push t l ~time ~seq slot =
  let n = t.l_len.(l) in
  let ring =
    let r = t.l_ring.(l) in
    if 3 * n = Array.length r then grow_ring t l else r
  in
  let j = 3 * ((t.l_head.(l) + n) land t.l_mask.(l)) in
  ring.(j) <- time;
  ring.(j + 1) <- seq;
  ring.(j + 2) <- slot;
  t.l_len.(l) <- n + 1;
  if n = 0 then Flat.push t.heads ~time ~seq ~payload:l

let push_event t ~(at : Time.t) slot =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  t.live <- t.live + 1;
  let time = (at :> int) in
  let d = time - (t.clock :> int) in
  let l = find_lane t d (lane_of_delay d) probes (-1) in
  if l < 0 then Flat.push t.fallback ~time ~seq ~payload:slot
  else lane_push t l ~time ~seq slot

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

(* Where the least pending entry sits: a lane index, [in_fallback], or
   [nowhere] when the queue is empty. The two roots never tie: every
   entry has its own seq. *)
let in_fallback = -1
let nowhere = -2

let front t =
  if Flat.is_empty t.heads then
    if Flat.is_empty t.fallback then nowhere else in_fallback
  else if Flat.is_empty t.fallback then Flat.min_payload t.heads
  else begin
    let lt = Flat.min_time t.heads and ft = Flat.min_time t.fallback in
    if lt < ft || (lt = ft && Flat.min_seq t.heads < Flat.min_seq t.fallback)
    then Flat.min_payload t.heads
    else in_fallback
  end

let front_time t src =
  if src = in_fallback then Flat.min_time t.fallback
  else Flat.min_time t.heads

let front_slot t src =
  if src = in_fallback then Flat.min_payload t.fallback
  else t.l_ring.(src).((3 * t.l_head.(src)) + 2)

(* Pops the front entry; a lane's next entry takes its place in [heads]. *)
let drop_front t src =
  if src = in_fallback then Flat.remove_min t.fallback
  else begin
    let n = t.l_len.(src) - 1 in
    t.l_len.(src) <- n;
    if n = 0 then Flat.remove_min t.heads
    else begin
      let h = (t.l_head.(src) + 1) land t.l_mask.(src) in
      t.l_head.(src) <- h;
      let ring = t.l_ring.(src) in
      Flat.replace_min t.heads ~time:ring.(3 * h)
        ~seq:ring.((3 * h) + 1)
        ~payload:src
    end
  end

(* Drops the cancelled tombstones at the front and returns where the
   least live entry sits, as [front] does. Direct recursion: a local
   [let rec] helper would allocate one closure per call, on the hottest
   loop in the simulator (hp-engine-step). *)
let rec live_front t =
  let src = front t in
  if src = nowhere then src
  else begin
    let slot = front_slot t src in
    if t.s_state.(slot) = st_cancelled then begin
      drop_front t src;
      free_slot t slot;
      live_front t
    end
    else src
  end

(* Pops the live front entry [src] and runs its event. *)
let fire t src =
  let slot = front_slot t src and time_ns = front_time t src in
  drop_front t src;
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
  end

let step t =
  let src = live_front t in
  if src = nowhere then false
  else begin
    fire t src;
    true
  end

let run ?until t =
  match until with
  | None -> while step t do () done
  | Some horizon ->
      let horizon_ns = Time.to_ns horizon in
      let continue = ref true in
      while !continue do
        let src = live_front t in
        if src = nowhere || front_time t src > horizon_ns then
          continue := false
        else fire t src
      done;
      if Time.(t.clock < horizon) then t.clock <- horizon

let events_processed t = t.fired

let next_time t =
  let src = live_front t in
  if src = nowhere then None else Some (Time.of_ns (front_time t src))
