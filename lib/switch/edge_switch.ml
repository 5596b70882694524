open Lazyctrl_net
open Lazyctrl_sim
open Lazyctrl_openflow
module Det = Lazyctrl_util.Det
module Prng = Lazyctrl_util.Prng
module Tracer = Lazyctrl_trace.Tracer
module Tev = Lazyctrl_trace.Event
module Wire = Lazyctrl_wire.Wire

type msg = Proto.t Message.t

(* Exact §13 wire size of a reliable payload — the retransmission tax in
   the same real units as the channel byte counters. *)
let payload_wire_size (m : msg) = Wire.message_size Proto.wire_ext m

type env = {
  engine : Engine.t;
  send_controller : msg -> bool;
  send_peer : Ids.Switch_id.t -> msg -> unit;
  send_underlay : Packet.t -> unit;
  deliver_local : Host.t -> Packet.t -> unit;
  underlay_ip_of : Ids.Switch_id.t -> Ipv4.t;
}

type config = {
  flow_table_capacity : int;
  gfib_bits_per_entry : int;
  expected_hosts_per_switch : int;
  report_false_positives : bool;
  reliable_state : bool;
  retrans : Reliable.config;
  miss_buffer_capacity : int;
  buffer_pool_capacity : int;
  buffer_ttl : Time.t;
}

let default_config =
  {
    flow_table_capacity = 4096;
    gfib_bits_per_entry = 128;
    expected_hosts_per_switch = 64;
    report_false_positives = false;
    reliable_state = true;
    retrans = Reliable.default_config;
    miss_buffer_capacity = 128;
    buffer_pool_capacity = 64;
    buffer_ttl = Time.of_sec 1;
  }

type stats = {
  packets_from_hosts : int;
  packets_delivered : int;
  encap_sent : int;
  flow_table_handled : int;
  lfib_handled : int;
  gfib_handled : int;
  gfib_duplicates : int;
  punted : int;
  fp_drops : int;
  arp_local_answered : int;
  arp_group_escalated : int;
  adverts_sent : int;
  keepalives_sent : int;
  misses_buffered : int;
  misses_replayed : int;
}

let stats_zero =
  {
    packets_from_hosts = 0;
    packets_delivered = 0;
    encap_sent = 0;
    flow_table_handled = 0;
    lfib_handled = 0;
    gfib_handled = 0;
    gfib_duplicates = 0;
    punted = 0;
    fp_drops = 0;
    arp_local_answered = 0;
    arp_group_escalated = 0;
    adverts_sent = 0;
    keepalives_sent = 0;
    misses_buffered = 0;
    misses_replayed = 0;
  }

let stats_add a b =
  {
    packets_from_hosts = a.packets_from_hosts + b.packets_from_hosts;
    packets_delivered = a.packets_delivered + b.packets_delivered;
    encap_sent = a.encap_sent + b.encap_sent;
    flow_table_handled = a.flow_table_handled + b.flow_table_handled;
    lfib_handled = a.lfib_handled + b.lfib_handled;
    gfib_handled = a.gfib_handled + b.gfib_handled;
    gfib_duplicates = a.gfib_duplicates + b.gfib_duplicates;
    punted = a.punted + b.punted;
    fp_drops = a.fp_drops + b.fp_drops;
    arp_local_answered = a.arp_local_answered + b.arp_local_answered;
    arp_group_escalated = a.arp_group_escalated + b.arp_group_escalated;
    adverts_sent = a.adverts_sent + b.adverts_sent;
    keepalives_sent = a.keepalives_sent + b.keepalives_sent;
    misses_buffered = a.misses_buffered + b.misses_buffered;
    misses_replayed = a.misses_replayed + b.misses_replayed;
  }

type designated_state = {
  mutable buffered_deltas : Proto.lfib_delta list; (* newest first *)
  buffered_intensity : (int * int, int) Hashtbl.t;
}

type t = {
  env : env;
  config : config;
  tracer : Tracer.t;
  rng : Prng.t option; (* parent stream for reliable-session jitter *)
  self : Ids.Switch_id.t;
  lfib : Lfib.t;
  gfib : Gfib.t;
  table : Flow_table.t;
  intensity : (int, int) Hashtbl.t; (* remote switch id -> new-flow count *)
  designated_state : designated_state;
  mutable up : bool;
  mutable group : Proto.group_config option;
  mutable ring : (Ids.Switch_id.t * Ids.Switch_id.t) option; (* up, down *)
  mutable relay_via : Ids.Switch_id.t option;
  mutable master_term : int; (* highest accepted Rehome term *)
  mutable timers : Engine.event_id list;
  mutable last_seen_up : Time.t;   (* last keep-alive from upstream *)
  mutable last_seen_down : Time.t; (* last keep-alive from downstream *)
  mutable alarmed_up : bool;
  mutable alarmed_down : bool;
  mutable sync_ticks : int;
  (* reliable state dissemination *)
  mutable ctrl_session : msg Reliable.t option; (* created on first use *)
  peer_sessions : (int, msg Reliable.t) Hashtbl.t;
  mutable ctrl_suspect : bool; (* a control-link send failed; re-sync on reconnect *)
  miss_buffer : (Packet.t * Message.reason) Queue.t;
      (* inter-group misses punted while the control link was lost *)
  buffers : Buffer_pool.t;
      (* parked miss packets referenced by Packet_in buffer ids *)
  (* stats *)
  mutable s_from_hosts : int;
  mutable s_delivered : int;
  mutable s_encap : int;
  mutable s_flow_table : int;
  mutable s_lfib : int;
  mutable s_gfib : int;
  mutable s_gfib_dup : int;
  mutable s_punted : int;
  mutable s_fp_drops : int;
  mutable s_arp_local : int;
  mutable s_arp_escalated : int;
  mutable s_adverts : int;
  mutable s_keepalives : int;
  mutable s_miss_buffered : int;
  mutable s_miss_replayed : int;
}

let create ?(tracer = Tracer.disabled) ?rng env config ~self =
  {
    env;
    config;
    tracer;
    rng;
    self;
    lfib = Lfib.create ();
    gfib =
      Gfib.create ~bits_per_entry:config.gfib_bits_per_entry
        ~expected_hosts_per_switch:config.expected_hosts_per_switch ();
    table = Flow_table.create ~capacity:config.flow_table_capacity ();
    intensity = Hashtbl.create 32;
    designated_state =
      { buffered_deltas = []; buffered_intensity = Hashtbl.create 64 };
    up = true;
    group = None;
    ring = None;
    relay_via = None;
    master_term = 0;
    timers = [];
    last_seen_up = Time.zero;
    last_seen_down = Time.zero;
    alarmed_up = false;
    alarmed_down = false;
    sync_ticks = 0;
    ctrl_session = None;
    peer_sessions = Hashtbl.create 8;
    ctrl_suspect = false;
    miss_buffer = Queue.create ();
    buffers =
      Buffer_pool.create ~capacity:config.buffer_pool_capacity
        ~ttl:config.buffer_ttl ();
    s_from_hosts = 0;
    s_delivered = 0;
    s_encap = 0;
    s_flow_table = 0;
    s_lfib = 0;
    s_gfib = 0;
    s_gfib_dup = 0;
    s_punted = 0;
    s_fp_drops = 0;
    s_arp_local = 0;
    s_arp_escalated = 0;
    s_adverts = 0;
    s_keepalives = 0;
    s_miss_buffered = 0;
    s_miss_replayed = 0;
  }

let is_up t = t.up
let group t = t.group
let lfib t = t.lfib
let gfib t = t.gfib

let is_designated t =
  match t.group with
  | Some c -> Ids.Switch_id.equal c.designated t.self
  | None -> false

let now t = Engine.now t.env.engine

(* Flight-recorder shorthand.  [Tracer.emit] is a no-op when disabled;
   call sites that build an event payload (e.g. [Tev.Gfib_probe n])
   additionally guard on [Tracer.enabled] so the disabled fast path
   allocates nothing. *)
let trace t kind =
  if Tracer.enabled t.tracer then
    Tracer.emit t.tracer ~now:(now t)
      ~switch:(Ids.Switch_id.to_int t.self)
      kind

let trace_pkt t packet kind =
  if Tracer.enabled t.tracer then
    Tracer.emit t.tracer ~now:(now t)
      ?flow:(Tracer.flow_of_packet packet)
      ~switch:(Ids.Switch_id.to_int t.self)
      kind

(* Raw control-link transmission (or relay through a ring neighbour);
   [false] flags a dead control link, which arms the reconnect re-sync. *)
let raw_send_controller t msg =
  let ok =
    match t.relay_via with
    | None -> t.env.send_controller msg
    | Some neighbor ->
        t.env.send_peer neighbor
          (Message.Extension (Proto.Relay { origin = t.self; boxed = msg }));
        true
  in
  if not ok then t.ctrl_suspect <- true;
  ok

let send_controller t msg = ignore (raw_send_controller t msg)

(* --- reliable sessions ---------------------------------------------------- *)

let ctrl_session t =
  match t.ctrl_session with
  | Some s -> s
  | None ->
      let s =
        Reliable.create ~tracer:t.tracer ?rng:t.rng
          ~payload_bytes:payload_wire_size t.env.engine t.config.retrans
          ~send_data:(fun ~epoch ~seq payload ->
            send_controller t (Message.Extension (Proto.Seq { epoch; seq; payload })))
          ~send_ack:(fun ~epoch ~cum ->
            send_controller t (Message.Extension (Proto.Ack { epoch; cum })))
          ~name:(Printf.sprintf "sw%d-ctrl" (Ids.Switch_id.to_int t.self))
          ()
      in
      t.ctrl_session <- Some s;
      s

let peer_session t sid =
  let key = Ids.Switch_id.to_int sid in
  match Hashtbl.find_opt t.peer_sessions key with
  | Some s -> s
  | None ->
      let s =
        Reliable.create ~tracer:t.tracer ?rng:t.rng
          ~payload_bytes:payload_wire_size t.env.engine t.config.retrans
          ~send_data:(fun ~epoch ~seq payload ->
            t.env.send_peer sid
              (Message.Extension (Proto.Seq { epoch; seq; payload })))
          ~send_ack:(fun ~epoch ~cum ->
            t.env.send_peer sid (Message.Extension (Proto.Ack { epoch; cum })))
          ~name:
            (Printf.sprintf "sw%d-sw%d" (Ids.Switch_id.to_int t.self) key)
          ()
      in
      Hashtbl.add t.peer_sessions key s;
      s

(* State dissemination (adverts, reports, alarms) goes through the
   reliable layer when enabled; packet traffic and keep-alives stay raw —
   a retransmitted keep-alive would defeat its purpose as loss detector. *)
let send_state_ctrl t msg =
  if t.config.reliable_state then Reliable.send (ctrl_session t) msg
  else send_controller t msg

let send_state_peer t sid msg =
  if t.config.reliable_state then Reliable.send (peer_session t sid) msg
  else t.env.send_peer sid msg

let deliver t host pkt =
  t.s_delivered <- t.s_delivered + 1;
  trace_pkt t pkt Tev.Deliver;
  t.env.deliver_local host pkt

(* The underlay address encoding is global knowledge (172.16/12 + switch
   id), so the reverse mapping needs no lookup service.  Returns the raw
   switch index, or -1 when the address is outside the underlay block —
   an option here would box on the per-encap hot path. *)
let switch_idx_of_underlay_ip ip =
  let idx = Ipv4.to_int ip - Ipv4.to_int (Ipv4.of_switch_id 0) in
  if idx >= 0 && idx < 1 lsl 16 then idx else -1

let count_intensity t sid =
  let key = Ids.Switch_id.to_int sid in
  Hashtbl.replace t.intensity key
    (1 + Option.value (Hashtbl.find_opt t.intensity key) ~default:0)

let encap_to t sid eth =
  t.s_encap <- t.s_encap + 1;
  t.env.send_underlay
    (Packet.encap
       ~outer_src:(t.env.underlay_ip_of t.self)
       ~outer_dst:(t.env.underlay_ip_of sid)
       eth)

let punt t packet reason =
  t.s_punted <- t.s_punted + 1;
  if Tracer.enabled t.tracer then
    trace_pkt t packet
      (Tev.Punt
         (match reason with
         | Message.No_match -> "no_match"
         | Message.Action_punt -> "action_punt"));
  (* Park the packet and punt a truncated header + buffer id; a full pool
     falls back to an unbuffered full-packet punt (DESIGN.md §13). *)
  let buffer_id =
    match Buffer_pool.store t.buffers ~now:(now t) packet with
    | Some id -> id
    | None -> Message.no_buffer
  in
  if not (raw_send_controller t (Message.Packet_in { packet; reason; buffer_id }))
  then begin
    (* Graceful degradation: the controller is unreachable, so the miss
       cannot be resolved now. Intra-group traffic keeps flowing from the
       G-FIB; inter-group misses wait in a bounded queue and are replayed
       on reconnect (overflow falls back to the pre-buffering behaviour:
       the packet is dropped and the flow's first packet is lost). *)
    if buffer_id <> Message.no_buffer then Buffer_pool.cancel t.buffers buffer_id;
    if Queue.length t.miss_buffer < t.config.miss_buffer_capacity then begin
      Queue.push (packet, reason) t.miss_buffer;
      t.s_miss_buffered <- t.s_miss_buffered + 1
    end
  end

(* --- designated-switch duties ------------------------------------------- *)

let buffer_delta t (d : Proto.lfib_delta) =
  let ds = t.designated_state in
  ds.buffered_deltas <- d :: ds.buffered_deltas

let merge_intensity t origin pairs =
  let ds = t.designated_state in
  List.iter
    (fun (remote, count) ->
      let o = Ids.Switch_id.to_int origin
      and r = Ids.Switch_id.to_int remote in
      let key = if o < r then (o, r) else (r, o) in
      Hashtbl.replace ds.buffered_intensity key
        (count + Option.value (Hashtbl.find_opt ds.buffered_intensity key) ~default:0))
    pairs

let group_members_except t except =
  match t.group with
  | None -> []
  | Some c ->
      List.filter
        (fun m -> not (List.exists (Ids.Switch_id.equal m) except))
        c.members

(* Relay an advert to every other member and buffer it for the next state
   report to the controller. *)
let designated_handle_advert t (d : Proto.lfib_delta) ~relay =
  if relay then begin
    if Tracer.enabled t.tracer then trace t (Tev.Designated_relay "advert");
    List.iter
      (fun m -> send_state_peer t m (Message.Extension (Proto.Lfib_advert d)))
      (group_members_except t [ t.self; d.origin ])
  end;
  buffer_delta t d

let apply_advert_to_gfib t (d : Proto.lfib_delta) =
  if not (Ids.Switch_id.equal d.origin t.self) then
    if d.full then Gfib.set_peer t.gfib d.origin d.added
    else Gfib.apply_advert t.gfib d.origin ~added:d.added ~removed:d.removed

let take_own_intensity t =
  (* Sorted by remote switch id so the report payload (and hence the
     simulation's event stream) is independent of hash-bucket layout. *)
  let pairs =
    List.map
      (fun (remote, count) -> (Ids.Switch_id.of_int remote, count))
      (Det.bindings_sorted ~cmp:Int.compare t.intensity)
  in
  Hashtbl.reset t.intensity;
  pairs

let send_state_report t =
  match t.group with
  | None -> ()
  | Some c ->
      if Tracer.enabled t.tracer then
        trace t (Tev.Designated_relay "state_report");
      merge_intensity t t.self (take_own_intensity t);
      let ds = t.designated_state in
      let intensity =
        List.map
          (fun ((a, b), count) ->
            (Ids.Switch_id.of_int a, Ids.Switch_id.of_int b, count))
          (Det.bindings_sorted ~cmp:Det.pair_compare ds.buffered_intensity)
      in
      let deltas = List.rev ds.buffered_deltas in
      ds.buffered_deltas <- [];
      Hashtbl.reset ds.buffered_intensity;
      send_state_ctrl t
        (Message.Extension (Proto.State_report { group = c.group; deltas; intensity }))

let send_member_report t =
  match t.group with
  | None -> ()
  | Some c ->
      let pairs = take_own_intensity t in
      if not (List.is_empty pairs) then
        send_state_peer t c.designated
          (Message.Extension (Proto.Member_report { origin = t.self; intensity = pairs }))

(* --- state advertisement ------------------------------------------------- *)

let advert_of_pending t =
  let added, removed = Lfib.take_pending t.lfib in
  if List.is_empty added && List.is_empty removed then None
  else Some { Proto.origin = t.self; added; removed; full = false }

let send_advert t (d : Proto.lfib_delta) =
  t.s_adverts <- t.s_adverts + 1;
  match t.group with
  | None -> () (* not grouped yet; the full sync at adoption covers it *)
  | Some c ->
      if Ids.Switch_id.equal c.designated t.self then
        designated_handle_advert t d ~relay:true
      else send_state_peer t c.designated (Message.Extension (Proto.Lfib_advert d))

let advertise_pending t =
  match advert_of_pending t with None -> () | Some d -> send_advert t d

(* --- ARP ------------------------------------------------------------------ *)

let local_arp_target t (eth : Packet.eth) =
  match eth.payload with
  | Packet.Arp { op = Packet.Request; target_ip; _ } ->
      Lfib.lookup_ip t.lfib target_ip
  | _ -> None

(* Deliver a group/controller-relayed ARP broadcast to the local owner, if
   any. Returns true when answered locally. *)
let try_answer_arp t packet =
  match local_arp_target t (Packet.eth_of packet) with
  | Some owner ->
      deliver t owner packet;
      true
  | None -> false

let designated_group_arp t ~origin packet =
  if Tracer.enabled t.tracer then trace t (Tev.Designated_relay "group_arp");
  (* Broadcast inside the group; every member checks its L-FIB. *)
  List.iter
    (fun m ->
      t.env.send_peer m (Message.Extension (Proto.Arp_broadcast { packet })))
    (group_members_except t [ t.self; origin ]);
  ignore (try_answer_arp t packet);
  (* If the aggregated group state has no trace of the target either, the
     request must leave the group: escalate to the controller (the
     deterministic stand-in for the paper's reply timeout). *)
  let eth = Packet.eth_of packet in
  let unknown_here =
    match eth.payload with
    | Packet.Arp { op = Packet.Request; target_ip; _ } ->
        Option.is_none (Lfib.lookup_ip t.lfib target_ip)
        && not (Gfib.has_candidate_ip t.gfib target_ip)
    | _ -> false
  in
  if unknown_here then begin
    trace t Tev.Arp_escalate;
    send_controller t
      (Message.Extension (Proto.Arp_escalate { origin; packet }))
  end

let handle_arp_request t packet target_ip =
  match Lfib.lookup_ip t.lfib target_ip with
  | Some owner ->
      t.s_arp_local <- t.s_arp_local + 1;
      trace t Tev.Arp_local;
      deliver t owner packet
  | None ->
      let eth = Packet.eth_of packet in
      let n = Gfib.iter_candidates_ip t.gfib target_ip (fun sid -> encap_to t sid eth) in
      if Tracer.enabled t.tracer then trace t (Tev.Gfib_probe n);
      if n = 0 then begin
        t.s_arp_escalated <- t.s_arp_escalated + 1;
        if is_designated t then designated_group_arp t ~origin:t.self packet
        else
          match t.group with
          | Some c ->
              trace t Tev.Arp_group;
              t.env.send_peer c.designated
                (Message.Extension (Proto.Group_arp { origin = t.self; packet }))
          | None ->
              (* Ungrouped bootstrap: only the controller can help. *)
              punt t packet Message.No_match
      end

(* --- data path (Fig. 5) --------------------------------------------------- *)

let flood_local t (eth : Packet.eth) =
  let sender_tenant =
    Option.map (fun (h : Host.t) -> h.tenant) (Lfib.lookup_mac t.lfib eth.src)
  in
  List.iter
    (fun (h : Host.t) ->
      let same_tenant =
        match sender_tenant with
        | Some ten -> Ids.Tenant_id.equal h.tenant ten
        | None -> true
      in
      if same_tenant && not (Mac.equal h.mac eth.src) then
        deliver t h (Packet.Plain eth))
    (Lfib.hosts t.lfib)

(* Recursion over the action list rather than [List.iter (fun ...)]: the
   literal would capture [t]/[packet] and allocate a closure per packet
   on the flow-table hit path. *)
let rec apply_actions t packet actions =
  match actions with
  | [] -> ()
  | action :: rest ->
      (match action with
      | Action.Deliver hid -> (
          match Lfib.lookup_id t.lfib hid with
          | Some h -> deliver t h packet
          | None -> ())
      | Action.Encap ip ->
          let idx = switch_idx_of_underlay_ip ip in
          if idx >= 0 then count_intensity t (Ids.Switch_id.of_int idx);
          t.s_encap <- t.s_encap + 1;
          t.env.send_underlay
            (Packet.encap
               ~outer_src:(t.env.underlay_ip_of t.self)
               ~outer_dst:ip (Packet.eth_of packet))
      | Action.Flood_local -> flood_local t (Packet.eth_of packet)
      | Action.To_controller -> punt t packet Message.Action_punt
      | Action.Drop -> ());
      apply_actions t packet rest

and data_path t packet =
  let eth = Packet.eth_of packet in
  match Flow_table.lookup t.table ~now:(now t) eth with
  | Some actions ->
      t.s_flow_table <- t.s_flow_table + 1;
      trace_pkt t packet Tev.Flow_table_hit;
      apply_actions t packet actions
  | None -> (
      match Lfib.lookup_mac t.lfib eth.dst with
      | Some host ->
          t.s_lfib <- t.s_lfib + 1;
          trace_pkt t packet Tev.Lfib_hit;
          deliver t host packet
      | None ->
          (* Per-packet fast path: probe the peer filters in place — no
             candidate list is materialized. Zero matches punt, exactly
             as the list-based code did. *)
          let n =
            Gfib.iter_candidates_mac t.gfib eth.dst (fun sid ->
                count_intensity t sid;
                encap_to t sid eth)
          in
          if Tracer.enabled t.tracer then
            trace_pkt t packet (Tev.Gfib_probe n);
          if n = 0 then punt t packet Message.No_match
          else begin
            t.s_gfib <- t.s_gfib + 1;
            t.s_gfib_dup <- t.s_gfib_dup + n - 1
          end)

(* --- host-facing entry points --------------------------------------------- *)

let attach_host t host =
  if Lfib.learn t.lfib host then advertise_pending t

let detach_host t hid = if Lfib.forget t.lfib hid then advertise_pending t

let handle_from_host t host packet =
  if t.up then begin
    t.s_from_hosts <- t.s_from_hosts + 1;
    trace_pkt t packet Tev.Ingress;
    (* Source learning, as in an ordinary L2 switch. *)
    if Lfib.learn t.lfib host then advertise_pending t;
    let eth = Packet.eth_of packet in
    match eth.payload with
    | Packet.Arp { op = Packet.Request; target_ip; _ } ->
        handle_arp_request t packet target_ip
    | Packet.Arp { op = Packet.Reply; _ } | Packet.Ipv4 _ -> data_path t packet
  end

(* §III-D4 misdelivery telemetry, off by default; declared a cold
   boundary — its frequency is the Bloom false-positive rate ε, not the
   packet rate. *)
let report_false_positive t dst =
  if t.config.report_false_positives then
    send_controller t (Message.Extension (Proto.False_positive { at = t.self; dst }))

let handle_underlay t packet =
  if t.up then
    match packet with
    | Packet.Plain _ -> () (* the core only carries encapsulated frames *)
    | Packet.Encap { inner; _ } -> (
        match inner.payload with
        | Packet.Arp { op = Packet.Request; _ } ->
            if not (try_answer_arp t (Packet.Plain inner)) then begin
              (* Bloom false positive on the IP key. *)
              t.s_fp_drops <- t.s_fp_drops + 1;
              trace t Tev.Bloom_fp;
              report_false_positive t inner.dst
            end
        | Packet.Arp { op = Packet.Reply; _ } | Packet.Ipv4 _ -> (
            (* Controller-installed rules (e.g. detour routes, §III-E2)
               apply to decapsulated traffic too, as they would in the
               Open vSwitch datapath; the L-FIB handles the common case. *)
            match Flow_table.lookup t.table ~now:(now t) inner with
            | Some actions ->
                t.s_flow_table <- t.s_flow_table + 1;
                trace_pkt t (Packet.Plain inner) Tev.Flow_table_hit;
                apply_actions t (Packet.Plain inner) actions
            | None -> (
                match Lfib.lookup_mac t.lfib inner.dst with
                | Some host -> deliver t host (Packet.Plain inner)
                | None ->
                    t.s_fp_drops <- t.s_fp_drops + 1;
                    trace_pkt t (Packet.Plain inner) Tev.Bloom_fp;
                    report_false_positive t inner.dst)))

(* --- wheel keep-alives ----------------------------------------------------- *)

let ring_alarm t ~missing ~direction =
  send_state_ctrl t
    (Message.Extension (Proto.Ring_alarm { observer = t.self; missing; direction }))

let keepalive_tick t =
  if t.up then
    match t.ring with
    | None -> ()
    | Some (up, down) ->
        t.s_keepalives <- t.s_keepalives + 2;
        t.env.send_peer up (Message.Extension (Proto.Keepalive { from = t.self }));
        t.env.send_peer down (Message.Extension (Proto.Keepalive { from = t.self }))

let keepalive_check t ~period =
  if t.up then
    match t.ring with
    | None -> ()
    | Some (up, down) ->
        let deadline = Time.scale period 2.5 in
        let late last = Time.(Time.diff (now t) last > deadline) in
        if late t.last_seen_up then begin
          if not t.alarmed_up then begin
            t.alarmed_up <- true;
            (* The upstream neighbour's keep-alive travels downstream. *)
            ring_alarm t ~missing:up ~direction:`Down
          end
        end
        else t.alarmed_up <- false;
        if late t.last_seen_down then begin
          if not t.alarmed_down then begin
            t.alarmed_down <- true;
            ring_alarm t ~missing:down ~direction:`Up
          end
        end
        else t.alarmed_down <- false

(* --- group (re)configuration ---------------------------------------------- *)

let cancel_timers t =
  List.iter (Engine.cancel t.env.engine) t.timers;
  t.timers <- []

let start_timers t (c : Proto.group_config) =
  let engine = t.env.engine in
  (* Spread periodic work across the period so reports do not synchronize. *)
  let offset period =
    Time.of_ns (Time.to_ns period * (Ids.Switch_id.to_int t.self mod 61) / 61)
  in
  let start_every ~period f =
    let id =
      Engine.schedule engine ~after:(offset period) (fun () ->
          f ();
          t.timers <- Engine.every engine ~period f :: t.timers)
    in
    t.timers <- id :: t.timers
  in
  start_every ~period:c.keepalive_period (fun () -> keepalive_tick t);
  start_every ~period:c.keepalive_period (fun () ->
      keepalive_check t ~period:c.keepalive_period);
  start_every ~period:c.sync_period (fun () ->
      if t.up then begin
        t.sync_ticks <- t.sync_ticks + 1;
        (* Every few cycles, re-advertise the full table: state is then
           self-healing against lost or misordered adverts (a full advert
           rebuilds the receivers' filters from scratch). *)
        if t.sync_ticks mod 5 = 0 then begin
          ignore (Lfib.take_pending t.lfib);
          send_advert t
            {
              Proto.origin = t.self;
              added = Lfib.all_keys t.lfib;
              removed = [];
              full = true;
            }
        end
        else advertise_pending t;
        if is_designated t then send_state_report t else send_member_report t
      end)

let adopt_group t (c : Proto.group_config) =
  cancel_timers t;
  t.group <- Some c;
  t.ring <- Proto.Ring.neighbors ~members:c.members t.self;
  t.last_seen_up <- now t;
  t.last_seen_down <- now t;
  t.alarmed_up <- false;
  t.alarmed_down <- false;
  t.relay_via <- None;
  (* Drop filters of switches that left the group. *)
  List.iter
    (fun peer ->
      if not (List.exists (Ids.Switch_id.equal peer) c.members) then
        Gfib.drop_peer t.gfib peer)
    (Gfib.peers t.gfib);
  (* Introduce ourselves to the (possibly new) designated switch. *)
  ignore (Lfib.take_pending t.lfib);
  let d =
    { Proto.origin = t.self; added = Lfib.all_keys t.lfib; removed = []; full = true }
  in
  send_advert t d;
  start_timers t c

(* --- message handling ------------------------------------------------------ *)

(* A new master controller claimed us (EASM migration or failover
   re-homing).  Strictly newer terms only: a stale master's
   retransmitted claim must not yank the session back.  The old reliable
   session cannot continue against the new master's fresh receive
   window, so bump our epoch, then re-sync toward the new owner: Hello
   (so it re-pushes our group config), a full advert (healing its C-LIB
   row), and the buffered misses drain to the new owner — this is what
   makes the master handoff lose no packets. *)
let rehome t ~term =
  if term > t.master_term then begin
    t.master_term <- term;
    (match t.ctrl_session with Some s -> Reliable.reset s | None -> ());
    t.ctrl_suspect <- false;
    ignore (raw_send_controller t Message.Hello);
    ignore (Lfib.take_pending t.lfib);
    send_state_ctrl t
      (Message.Extension
         (Proto.Lfib_advert
            {
              Proto.origin = t.self;
              added = Lfib.all_keys t.lfib;
              removed = [];
              full = true;
            }));
    let n = Queue.length t.miss_buffer in
    for _ = 1 to n do
      let packet, reason = Queue.pop t.miss_buffer in
      t.s_miss_replayed <- t.s_miss_replayed + 1;
      send_controller t
        (Message.Packet_in { packet; reason; buffer_id = Message.no_buffer })
    done
  end

let handle_extension_from_controller t = function
  | Proto.Group_config c -> adopt_group t c
  | Proto.Group_sync { lfibs } ->
      (* Rebuild the whole group's view: apply locally and re-broadcast as
         full adverts so every member rebuilds its G-FIB. *)
      List.iter
        (fun (sw, keys) ->
          let d = { Proto.origin = sw; added = keys; removed = []; full = true } in
          apply_advert_to_gfib t d;
          designated_handle_advert t d ~relay:true)
        lfibs
  | Proto.Arp_broadcast { packet } ->
      (* Cross-group relay: re-broadcast inside our group. *)
      List.iter
        (fun m ->
          t.env.send_peer m (Message.Extension (Proto.Arp_broadcast { packet })))
        (group_members_except t [ t.self ]);
      ignore (try_answer_arp t packet)
  | Proto.Lfib_advert d -> apply_advert_to_gfib t d
  | Proto.Rehome { term; master = _ } -> rehome t ~term
  | Proto.Group_arp _ | Proto.Member_report _ | Proto.State_report _
  | Proto.Arp_escalate _ | Proto.False_positive _ | Proto.Keepalive _
  | Proto.Ring_alarm _ | Proto.Relay _ ->
      ()
  | Proto.Seq _ | Proto.Ack _ -> () (* unwrapped one level up *)

(* The control link is back (we just heard from the controller after a
   failed send): replay buffered misses, revive the reliable session and
   run the anti-entropy re-sync — a full L-FIB advert to the controller
   (healing its C-LIB row, the controller applies [Lfib_advert] directly)
   and to the group (healing peer G-FIBs). *)
let reconnect t =
  t.ctrl_suspect <- false;
  if t.config.reliable_state then Reliable.kick (ctrl_session t);
  let n = Queue.length t.miss_buffer in
  for _ = 1 to n do
    let packet, reason = Queue.pop t.miss_buffer in
    t.s_miss_replayed <- t.s_miss_replayed + 1;
    send_controller t
      (Message.Packet_in { packet; reason; buffer_id = Message.no_buffer })
  done;
  ignore (Lfib.take_pending t.lfib);
  let d =
    { Proto.origin = t.self; added = Lfib.all_keys t.lfib; removed = []; full = true }
  in
  send_state_ctrl t (Message.Extension (Proto.Lfib_advert d));
  send_advert t d;
  (* If we lost our group while the link was out (e.g. a power cycle the
     controller never noticed), ask for a fresh config. *)
  if Option.is_none t.group then ignore (raw_send_controller t Message.Hello)

let rec handle_controller_message t msg =
  if t.up then begin
    if t.ctrl_suspect then reconnect t;
    (match t.ctrl_session with
    | Some s when Reliable.has_given_up s -> Reliable.kick s
    | _ -> ());
    match msg with
    | Message.Flow_mod (Message.Add entry) ->
        Flow_table.install t.table ~now:(now t) entry
    | Message.Flow_mod (Message.Delete m) ->
        ignore (Flow_table.remove_matching t.table m)
    | Message.Packet_out { packet; actions } -> apply_actions t packet actions
    | Message.Buffer_out { buffer_id; actions } -> (
        (* Release a parked miss; unknown/expired ids were already counted
           by the pool and the packet is simply gone (aged out). *)
        match Buffer_pool.take t.buffers ~now:(now t) buffer_id with
        | Some packet -> apply_actions t packet actions
        | None -> ())
    | Message.Echo_request n -> send_controller t (Message.Echo_reply n)
    | Message.Echo_reply _ | Message.Hello | Message.Packet_in _ -> ()
    | Message.Extension (Proto.Seq { epoch; seq; payload }) ->
        List.iter
          (handle_controller_message t)
          (Reliable.handle_data (ctrl_session t) ~epoch ~seq payload)
    | Message.Extension (Proto.Ack { epoch; cum }) ->
        Reliable.handle_ack (ctrl_session t) ~epoch ~cum
    | Message.Extension ext -> handle_extension_from_controller t ext
  end

let rec handle_peer_message t ~from msg =
  if t.up then begin
    (match Hashtbl.find_opt t.peer_sessions (Ids.Switch_id.to_int from) with
    | Some s when Reliable.has_given_up s -> Reliable.kick s
    | _ -> ());
    match msg with
    | Message.Extension ext -> (
        match ext with
        | Proto.Seq { epoch; seq; payload } ->
            List.iter
              (fun m -> handle_peer_message t ~from m)
              (Reliable.handle_data (peer_session t from) ~epoch ~seq payload)
        | Proto.Ack { epoch; cum } ->
            Reliable.handle_ack (peer_session t from) ~epoch ~cum
        | Proto.Lfib_advert d ->
            apply_advert_to_gfib t d;
            (* First-hand adverts reach the designated switch directly from
               their origin and still need relaying; copies relayed by the
               designated switch must not be relayed again. *)
            if is_designated t && Ids.Switch_id.equal from d.origin then
              designated_handle_advert t d ~relay:true
        | Proto.Member_report { origin; intensity } ->
            if is_designated t then merge_intensity t origin intensity
        | Proto.Group_arp { origin; packet } ->
            if is_designated t then designated_group_arp t ~origin packet
        | Proto.Arp_broadcast { packet } -> ignore (try_answer_arp t packet)
        | Proto.Keepalive { from = k } -> (
            match t.ring with
            | None -> ()
            | Some (up, down) ->
                if Ids.Switch_id.equal k up then t.last_seen_up <- now t;
                if Ids.Switch_id.equal k down then t.last_seen_down <- now t)
        | Proto.Relay _ as relayed ->
            (* We are the healthy neighbour: forward on our control link. *)
            ignore (t.env.send_controller (Message.Extension relayed))
        | Proto.Group_config _ | Proto.Group_sync _ | Proto.State_report _
        | Proto.Arp_escalate _ | Proto.False_positive _ | Proto.Ring_alarm _
        | Proto.Rehome _ ->
            ())
    | Message.Hello | Message.Echo_request _ | Message.Echo_reply _
    | Message.Packet_in _ | Message.Packet_out _ | Message.Buffer_out _
    | Message.Flow_mod _ ->
        ()
  end

let set_up t up =
  if t.up && not up then begin
    (* Power off: volatile state is lost. *)
    cancel_timers t;
    t.up <- false;
    t.group <- None;
    t.ring <- None;
    t.relay_via <- None;
    Gfib.clear t.gfib;
    t.designated_state.buffered_deltas <- [];
    Hashtbl.reset t.designated_state.buffered_intensity;
    Hashtbl.reset t.intensity;
    (* Reliable sessions do not survive a reboot: bump epochs so peers
       treat our post-reboot seq 0 as a new stream, not a stale dup. *)
    t.ctrl_suspect <- false;
    t.master_term <- 0;
    Queue.clear t.miss_buffer;
    Buffer_pool.clear t.buffers;
    (match t.ctrl_session with Some s -> Reliable.reset s | None -> ());
    Det.iter_sorted ~cmp:Int.compare
      (fun _ s -> Reliable.reset s)
      t.peer_sessions
  end
  else if (not t.up) && up then begin
    t.up <- true;
    (* Power-on handshake: announce ourselves so the controller re-pushes
       our group config even when the outage was shorter than its failure
       detection (otherwise we would sit ungrouped until the next regroup). *)
    ignore (raw_send_controller t Message.Hello)
  end

let set_control_relay t via = t.relay_via <- via

let flush_report t =
  if t.up then begin
    advertise_pending t;
    if is_designated t then send_state_report t else send_member_report t
  end

let stats t =
  {
    packets_from_hosts = t.s_from_hosts;
    packets_delivered = t.s_delivered;
    encap_sent = t.s_encap;
    flow_table_handled = t.s_flow_table;
    lfib_handled = t.s_lfib;
    gfib_handled = t.s_gfib;
    gfib_duplicates = t.s_gfib_dup;
    punted = t.s_punted;
    fp_drops = t.s_fp_drops;
    arp_local_answered = t.s_arp_local;
    arp_group_escalated = t.s_arp_escalated;
    adverts_sent = t.s_adverts;
    keepalives_sent = t.s_keepalives;
    misses_buffered = t.s_miss_buffered;
    misses_replayed = t.s_miss_replayed;
  }

let control_link_suspect t = t.ctrl_suspect
let misses_pending t = Queue.length t.miss_buffer
let master_term t = t.master_term

let reliable_stats t =
  let acc =
    match t.ctrl_session with
    | None -> Reliable.stats_zero
    | Some s -> Reliable.stats s
  in
  List.fold_left
    (fun acc (_, s) -> Reliable.stats_add acc (Reliable.stats s))
    acc
    (Det.bindings_sorted ~cmp:Int.compare t.peer_sessions)
