(* Conservative time-window coordinator over per-shard event engines.

   S *logical* shards each own a private flat-heap {!Engine.t}; D
   *physical* domains (D <= S) execute them through a persistent
   {!Domain_pool}.  Simulated time advances in fixed windows of width W
   aligned to the absolute grid (window k covers (k*W, (k+1)*W]): every
   shard runs its engine to the window end in parallel, the pool barrier
   publishes all cross-shard posts, and the coordinator merges them into
   the destination engines in (time, src, seq) order before the next
   window starts.

   Conservative rule: a cross-shard post made inside window k must
   arrive strictly after the end of window k, because the destination
   engine is concurrently executing that window.  Callers guarantee this
   by construction when every cross-shard latency is >= W (an event
   firing at tau in (end_{k-1}, end_k] posts arrival tau + L >
   end_{k-1} + W = end_k); [post] checks it and raises
   [Conservative_violation] otherwise.

   Determinism at any domain count: within a window the logical shards
   share nothing (S00x ownership spec), so each shard's execution — and
   hence its post stream with its per-source seq numbers — is a pure
   function of simulation state; the barrier merge sorts by
   (time, src, seq), a key that never mentions a domain.  Windows are
   grid-aligned, so their boundaries do not depend on scheduling either.
   Idle windows are skipped by jumping to the window that contains the
   earliest live event across all shard engines, which is again a
   global, domain-independent quantity. *)

exception Conservative_violation of { src : int; dst : int; at : Time.t; window_end : Time.t }

let () =
  Printexc.register_printer (function
    | Conservative_violation { src; dst; at; window_end } ->
        Some
          (Printf.sprintf
             "Shard_engine.Conservative_violation: post %d->%d arriving at %dns \
              inside or before current window ending %dns (cross-shard latency \
              must be >= the window width)"
             src dst (Time.to_ns at) (Time.to_ns window_end))
    | _ -> None)

type stats = {
  domains : int;
  shards : int;
  windows : int; (* busy windows executed (idle ones are skipped) *)
  messages : int; (* cross-shard messages delivered *)
  max_window_batch : int;
  events : int; (* total engine events fired across shards *)
  pair_counts : int array array;
}

type t = {
  engines : Engine.t array;
  n : int;
  domains : int;
  window_ns : int;
  ex : Exchange.t;
  pool : Domain_pool.t option; (* [None] iff [domains = 1] *)
  mutable window_end : Time.t; (* end of the window being (or last) executed *)
  mutable windows : int;
  mutable busy : int array; (* scratch: busy shard indices *)
}

let default_domains () =
  match Sys.getenv_opt "LAZYCTRL_DOMAINS" with
  | None -> 1
  | Some s -> ( match int_of_string_opt (String.trim s) with
    | Some d when d >= 1 -> d
    | _ -> 1)

let create ?domains ~shards ~window () =
  if shards < 1 then invalid_arg "Shard_engine.create: shards < 1";
  if shards > 1 && Time.to_ns window <= 0 then
    invalid_arg "Shard_engine.create: window <= 0";
  let requested = match domains with Some d -> d | None -> default_domains () in
  let domains = max 1 (min requested shards) in
  {
    engines = Array.init shards (fun _ -> Engine.create ());
    n = shards;
    domains;
    window_ns = Time.to_ns window;
    ex = Exchange.create ~shards;
    pool = (if domains > 1 then Some (Domain_pool.create ~lanes:domains) else None);
    window_end = Time.zero;
    windows = 0;
    busy = Array.make shards 0;
  }

let shards t = t.n
let domains t = t.domains
let window t = Time.of_ns t.window_ns
let engine t i = t.engines.(i)

let now t =
  let m = ref (Engine.now t.engines.(0)) in
  for i = 1 to t.n - 1 do
    m := Time.min !m (Engine.now t.engines.(i))
  done;
  !m

let post t ~src ~dst ~at f =
  if src < 0 || src >= t.n || dst < 0 || dst >= t.n then
    invalid_arg "Shard_engine.post: shard index out of range";
  if src = dst then ignore (Engine.schedule_at t.engines.(src) ~at f)
  else begin
    (* [window_end] is frozen while workers run (written only between
       windows, published by the pool's barrier), so this check is safe
       from any lane. *)
    if Time.(at <= t.window_end) then
      raise (Conservative_violation { src; dst; at; window_end = t.window_end });
    Exchange.post t.ex ~src ~dst ~time_ns:(Time.to_ns at) f
  end

let drain t =
  if Exchange.pending t.ex > 0 then
    Exchange.drain t.ex ~into:(fun ~dst ~time_ns f ->
        ignore (Engine.schedule_at t.engines.(dst) ~at:(Time.of_ns time_ns) f))

(* Earliest live event across all shard engines. *)
let min_next t =
  let m = ref None in
  for i = 0 to t.n - 1 do
    match Engine.next_time t.engines.(i) with
    | None -> ()
    | Some nt -> (
        match !m with
        | None -> m := Some nt
        | Some cur -> if Time.(nt < cur) then m := Some nt)
  done;
  !m

let advance_all t ~until =
  (* No shard has a live event <= until: just move the clocks. *)
  for i = 0 to t.n - 1 do
    Engine.run ~until t.engines.(i)
  done;
  if Time.(t.window_end < until) then t.window_end <- until

let run_window t ~horizon =
  let nbusy = ref 0 in
  let hns = Time.to_ns horizon in
  for i = 0 to t.n - 1 do
    match Engine.next_time t.engines.(i) with
    | Some nt when Time.to_ns nt <= hns ->
        t.busy.(!nbusy) <- i;
        incr nbusy
    | _ -> Engine.run ~until:horizon t.engines.(i)
  done;
  let nbusy = !nbusy in
  match t.pool with
  | Some pool when nbusy > 1 ->
      let thunks =
        Array.init nbusy (fun k ->
            let e = t.engines.(t.busy.(k)) in
            fun () -> Engine.run ~until:horizon e)
      in
      Domain_pool.run_all pool thunks
  | _ ->
      for k = 0 to nbusy - 1 do
        Engine.run ~until:horizon t.engines.(t.busy.(k))
      done

let run_windows t ~until =
  let w = t.window_ns in
  let continue_ = ref true in
  while !continue_ do
    drain t;
    match min_next t with
    | None ->
        advance_all t ~until;
        continue_ := false
    | Some m when Time.(m > until) ->
        advance_all t ~until;
        continue_ := false
    | Some m ->
        (* Jump to the grid window containing [m]: window k = (kW, (k+1)W],
           with m = 0 landing in window 0 ((m-1)/W truncates to 0). *)
        let k = (Time.to_ns m - 1) / w in
        let wend = Time.of_ns ((k + 1) * w) in
        t.window_end <- wend;
        run_window t ~horizon:(Time.min wend until);
        t.windows <- t.windows + 1
  done;
  drain t

(* One logical shard has nothing to exchange: its engine runs directly,
   so a one-shard run fires exactly the events of a plain engine run. *)
let run t ~until =
  if t.n = 1 then Engine.run ~until t.engines.(0) else run_windows t ~until

let stats t =
  let events = ref 0 in
  for i = 0 to t.n - 1 do
    events := !events + Engine.events_processed t.engines.(i)
  done;
  {
    domains = t.domains;
    shards = t.n;
    windows = t.windows;
    messages = Exchange.messages t.ex;
    max_window_batch = Exchange.max_batch t.ex;
    events = !events;
    pair_counts = Exchange.pair_counts t.ex;
  }

let shutdown t = match t.pool with None -> () | Some p -> Domain_pool.shutdown p
