module Time = Lazyctrl_sim.Time
module Packet = Lazyctrl_net.Packet
module Det = Lazyctrl_util.Det

type t = {
  on : bool;
  sample_every : int;
  capacity : int;
  ring : Event.t option array;
  mutable pushed : int;  (* events ever stored in the ring *)
  mutable seq : int;  (* next span sequence number *)
  counts : int array;  (* cumulative, indexed by Event.tag *)
  last_span : (int, Event.span) Hashtbl.t;  (* flow -> last span *)
  flow_ranks : (int, int) Hashtbl.t;  (* flow -> verdict rank *)
  mutable ctrl_bytes : int;  (* control-channel bytes, never sampled *)
}

let disabled =
  {
    on = false;
    sample_every = 1;
    capacity = 0;
    ring = [||];
    pushed = 0;
    seq = 0;
    counts = [||];
    last_span = Hashtbl.create 1;
    flow_ranks = Hashtbl.create 1;
    ctrl_bytes = 0;
  }

let create ?(sample_every = 1) ?(capacity = 262_144) () =
  if sample_every < 1 then invalid_arg "Tracer.create: sample_every < 1";
  if capacity < 1 then invalid_arg "Tracer.create: capacity < 1";
  {
    on = true;
    sample_every;
    capacity;
    ring = Array.make capacity None;
    pushed = 0;
    seq = 0;
    counts = Array.make Event.n_tags 0;
    last_span = Hashtbl.create 4096;
    flow_ranks = Hashtbl.create 4096;
    ctrl_bytes = 0;
  }

let enabled t = t.on

let derive t =
  if t.on then create ~sample_every:t.sample_every ~capacity:t.capacity ()
  else disabled

(* Byte accounting is a plain accumulator, not an event: wire-hook
   frequency (one call per encoded control message) would swamp the ring,
   and the cross-check against the channel counters needs totals exempt
   from sampling and eviction. The [t.on] guard keeps the shared
   [disabled] value immutable. *)
let add_ctrl_bytes t n = if t.on then t.ctrl_bytes <- t.ctrl_bytes + n
let ctrl_bytes t = t.ctrl_bytes

let sampled t flow = t.sample_every <= 1 || flow mod t.sample_every = 0

let emit t ~now ?flow ?switch kind =
  if t.on then
    let keep = match flow with Some f -> sampled t f | None -> true in
    if keep then begin
      let seq = t.seq in
      t.seq <- seq + 1;
      let tag = Event.tag kind in
      t.counts.(tag) <- t.counts.(tag) + 1;
      let parent =
        match flow with
        | Some f -> Hashtbl.find_opt t.last_span f
        | None -> None
      in
      let ev = { Event.time = now; seq; flow; switch; parent; kind } in
      (match flow with
      | None -> ()
      | Some f ->
          Hashtbl.replace t.last_span f (Event.span_of ev);
          let r = Laziness.rank_of_kind kind in
          (match Hashtbl.find_opt t.flow_ranks f with
          | Some r0 when r0 >= r -> ()
          | _ -> Hashtbl.replace t.flow_ranks f r));
      t.ring.(t.pushed mod t.capacity) <- Some ev;
      t.pushed <- t.pushed + 1
    end

let flow_of_packet p =
  match (Packet.eth_of p).Packet.payload with
  | Packet.Ipv4 ip -> Some (ip.Packet.src_port lor (ip.Packet.dst_port lsl 16))
  | Packet.Arp _ -> None

let events t =
  if t.capacity = 0 then []
  else
    let len = if t.pushed < t.capacity then t.pushed else t.capacity in
    let start = t.pushed - len in
    List.init len (fun i ->
        match t.ring.((start + i) mod t.capacity) with
        | Some e -> e
        | None -> assert false)

let recorded t = t.seq

let dropped t = if t.pushed > t.capacity then t.pushed - t.capacity else 0

let counts t =
  List.filter_map
    (fun tag ->
      if t.on && t.counts.(tag) > 0 then
        Some (Event.tag_label tag, t.counts.(tag))
      else None)
    (List.init Event.n_tags Fun.id)

let controller_requests t =
  if t.on then t.counts.(Event.tag (Event.Ctrl_request "")) else 0

let summary t =
  let per_flow =
    List.map
      (fun (f, r) -> (f, Laziness.verdict_of_rank r))
      (Det.bindings_sorted ~cmp:Int.compare t.flow_ranks)
  in
  Laziness.summary_of_verdicts
    ~controller_requests:(controller_requests t)
    ~events:t.seq per_flow
