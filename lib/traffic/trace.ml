open Lazyctrl_sim
open Lazyctrl_net

type flow = {
  time : Time.t;
  src : Ids.Host_id.t;
  dst : Ids.Host_id.t;
  bytes : int;
  packets : int;
}

type t = {
  n_hosts : int;
  duration : Time.t;
  times : int array;
  srcs : int array;
  dsts : int array;
  bytes : int array;
  pkts : int array;
}

module Builder = struct
  type trace = t

  type t = {
    n_hosts : int;
    duration : Time.t;
    mutable rows : (int * int * int * int * int) list;
    mutable count : int;
  }

  let create ~n_hosts ~duration =
    if n_hosts <= 0 then invalid_arg "Trace.Builder: n_hosts <= 0";
    { n_hosts; duration; rows = []; count = 0 }

  let add t ~time ~src ~dst ~bytes ~packets =
    let s = Ids.Host_id.to_int src and d = Ids.Host_id.to_int dst in
    if s = d then invalid_arg "Trace.Builder.add: self flow";
    if s >= t.n_hosts || d >= t.n_hosts then
      invalid_arg "Trace.Builder.add: host out of range";
    if Time.(time > t.duration) then invalid_arg "Trace.Builder.add: beyond duration";
    if bytes < 0 || packets <= 0 then invalid_arg "Trace.Builder.add: bad size";
    t.rows <- (Time.to_ns time, s, d, bytes, packets) :: t.rows;
    t.count <- t.count + 1

  let build t =
    let a = Array.of_list t.rows in
    (* rows were accumulated in reverse; sort by time, breaking ties by
       insertion order to keep the build deterministic. *)
    let n = Array.length a in
    let idx = Array.init n (fun i -> i) in
    Array.sort
      (fun i j ->
        let (ti, _, _, _, _) = a.(i) and (tj, _, _, _, _) = a.(j) in
        match Int.compare ti tj with
        | 0 -> Int.compare j i (* earlier insertion = larger list index *)
        | c -> c)
      idx;
    let times = Array.make n 0
    and srcs = Array.make n 0
    and dsts = Array.make n 0
    and bytes = Array.make n 0
    and pkts = Array.make n 0 in
    Array.iteri
      (fun pos i ->
        let t0, s, d, b, p = a.(i) in
        times.(pos) <- t0;
        srcs.(pos) <- s;
        dsts.(pos) <- d;
        bytes.(pos) <- b;
        pkts.(pos) <- p)
      idx;
    { n_hosts = t.n_hosts; duration = t.duration; times; srcs; dsts; bytes; pkts }
end

let n_flows t = Array.length t.times
let n_hosts t = t.n_hosts
let duration t = t.duration

let flow t i =
  {
    time = Time.of_ns t.times.(i);
    src = Ids.Host_id.of_int t.srcs.(i);
    dst = Ids.Host_id.of_int t.dsts.(i);
    bytes = t.bytes.(i);
    packets = t.pkts.(i);
  }

(* First index with time >= target, by binary search. *)
let lower_bound t target =
  let n = Array.length t.times in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.times.(mid) < target then lo := mid + 1 else hi := mid
  done;
  !lo

let iter ?from ?until t f =
  let start = match from with None -> 0 | Some x -> lower_bound t (Time.to_ns x) in
  let stop =
    match until with None -> n_flows t | Some x -> lower_bound t (Time.to_ns x)
  in
  for i = start to stop - 1 do
    f (flow t i)
  done

let total_bytes t = Array.fold_left ( + ) 0 t.bytes

let pair_key s d = if s < d then (s, d) else (d, s)

let pair_flow_counts t =
  let h = Hashtbl.create (n_flows t / 4) in
  for i = 0 to n_flows t - 1 do
    let key = pair_key t.srcs.(i) t.dsts.(i) in
    Hashtbl.replace h key (1 + Option.value (Hashtbl.find_opt h key) ~default:0)
  done;
  h

let communicating_pairs t = Hashtbl.length (pair_flow_counts t)

(* Binary trace format: "LZTR" magic, version, n_hosts, duration, flow
   count, then per-flow columns as int64 (time, src, dst, bytes, pkts). *)
let magic = 0x4C5A5452l

let save t path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let w64 v = 
        let b = Bytes.create 8 in
        Bytes.set_int64_be b 0 (Int64.of_int v);
        output_bytes oc b
      in
      let w32 v =
        let b = Bytes.create 4 in
        Bytes.set_int32_be b 0 v;
        output_bytes oc b
      in
      w32 magic;
      w32 1l;
      w64 t.n_hosts;
      w64 (Time.to_ns t.duration);
      w64 (n_flows t);
      for i = 0 to n_flows t - 1 do
        w64 t.times.(i);
        w64 t.srcs.(i);
        w64 t.dsts.(i);
        w64 t.bytes.(i);
        w64 t.pkts.(i)
      done)

let load path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let bad msg = invalid_arg ("Trace.load: " ^ msg) in
      let r64 () =
        let b = Bytes.create 8 in
        (try really_input ic b 0 8 with End_of_file -> bad "truncated");
        Int64.to_int (Bytes.get_int64_be b 0)
      in
      let r32 () =
        let b = Bytes.create 4 in
        (try really_input ic b 0 4 with End_of_file -> bad "truncated");
        Bytes.get_int32_be b 0
      in
      if r32 () <> magic then bad "bad magic";
      if r32 () <> 1l then bad "unsupported version";
      let n_hosts = r64 () in
      let duration = Time.of_ns (r64 ()) in
      let n = r64 () in
      if n_hosts <= 0 || n < 0 then bad "bad header";
      let times = Array.make n 0
      and srcs = Array.make n 0
      and dsts = Array.make n 0
      and bytes = Array.make n 0
      and pkts = Array.make n 0 in
      for i = 0 to n - 1 do
        times.(i) <- r64 ();
        srcs.(i) <- r64 ();
        dsts.(i) <- r64 ();
        bytes.(i) <- r64 ();
        pkts.(i) <- r64 ()
      done;
      (* Validate invariants the builder would have enforced. *)
      for i = 0 to n - 1 do
        if srcs.(i) < 0 || srcs.(i) >= n_hosts || dsts.(i) < 0
           || dsts.(i) >= n_hosts || srcs.(i) = dsts.(i) || pkts.(i) <= 0
           || times.(i) < 0
           || times.(i) > Time.to_ns duration
           || (i > 0 && times.(i) < times.(i - 1))
        then bad "corrupt flow record"
      done;
      { n_hosts; duration; times; srcs; dsts; bytes; pkts })

let sub_between t ~from ~until =
  if Time.(until < from) then invalid_arg "Trace.sub_between: empty window";
  let duration = Time.sub until from in
  let builder = Builder.create ~n_hosts:t.n_hosts ~duration in
  iter ~from ~until t (fun f ->
      Builder.add builder
        ~time:(Time.sub f.time from)
        ~src:f.src ~dst:f.dst ~bytes:f.bytes ~packets:f.packets);
  Builder.build builder
