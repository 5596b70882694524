open Lazyctrl_net
module Time = Lazyctrl_sim.Time
module Engine = Lazyctrl_sim.Engine
module Topology = Lazyctrl_topo.Topology
module Trace = Lazyctrl_traffic.Trace
module Lfib = Lazyctrl_switch.Lfib
module Gfib = Lazyctrl_switch.Gfib
module Proto = Lazyctrl_switch.Proto
module Edge_switch = Lazyctrl_switch.Edge_switch
module Message = Lazyctrl_openflow.Message
module Wire = Lazyctrl_wire.Wire
module Measure = Lazyctrl_perf.Measure
module Prng = Lazyctrl_util.Prng

type costs = {
  bare_step_ns : float;
  lfib_lookup_ns : float;
  gfib_probe_ns : float;
  encode_ns : float;
  decode_ns : float;
  words_per_msg : float;
}

let time name ~ops f = Measure.run ~name ~reps:3 ~ops_per_rep:ops f

let nop () = ()

(* Schedule-and-drain in batches of 8192 events, the replay chunk size:
   the queue depth the engine sees while a trace streams in. *)
let bare_step ~ops =
  let batch = min ops 8192 in
  let delays =
    let rng = Prng.create 37 in
    Array.init batch (fun _ -> Time.of_ns (Prng.int rng 1_000_000))
  in
  let e = Engine.create () in
  let ops = batch * max 1 (ops / batch) in
  time "bare-step" ~ops (fun () ->
      for _ = 1 to ops / batch do
        Array.iter (fun d -> ignore (Engine.schedule e ~after:d nop)) delays;
        while Engine.step e do () done
      done)

let key (h : Host.t) = { Proto.mac = h.Host.mac; ip = h.Host.ip; tenant = h.Host.tenant }

(* Flow counts per (src switch, dst switch). *)
let switch_pairs topo trace =
  let n = Topology.n_switches topo in
  let m = Array.make_matrix n n 0 in
  Trace.iter trace (fun f ->
      let s = Ids.Switch_id.to_int (Topology.location topo f.Trace.src)
      and d = Ids.Switch_id.to_int (Topology.location topo f.Trace.dst) in
      m.(s).(d) <- m.(s).(d) + 1);
  m

let argmax a =
  let best = ref 0 in
  Array.iteri (fun i v -> if v > a.(!best) then best := i) a;
  !best

let fibs topo trace =
  let m = switch_pairs topo trace in
  let src = argmax (Array.map (Array.fold_left ( + ) 0) m) in
  let lfib = Lfib.create () in
  List.iter
    (fun h -> ignore (Lfib.learn lfib h))
    (Topology.hosts_at topo (Ids.Switch_id.of_int src));
  let cfg = Edge_switch.default_config in
  let gfib =
    Gfib.create ~bits_per_entry:cfg.Edge_switch.gfib_bits_per_entry
      ~expected_hosts_per_switch:cfg.Edge_switch.expected_hosts_per_switch ()
  in
  let peers =
    List.init (Topology.n_switches topo) Fun.id
    |> List.filter (fun d -> d <> src && m.(src).(d) > 0)
    |> List.stable_sort (fun a b -> Int.compare m.(src).(b) m.(src).(a))
    |> List.filteri (fun i _ -> i < 13)
  in
  List.iter
    (fun d ->
      let sw = Ids.Switch_id.of_int d in
      Gfib.set_peer gfib sw (List.map key (Topology.hosts_at topo sw)))
    peers;
  (lfib, gfib)

let lookups topo trace ~ops =
  let lfib, gfib = fibs topo trace in
  let dests =
    Array.init (Trace.n_flows trace) (fun i ->
        (Topology.host topo (Trace.flow trace i).Trace.dst).Host.mac)
  in
  let n = Array.length dests in
  let hits = ref 0 in
  let l =
    time "lfib-lookup" ~ops (fun () ->
        for i = 0 to ops - 1 do
          match Lfib.lookup_mac lfib (Array.unsafe_get dests (i mod n)) with
          | Some _ -> incr hits
          | None -> ()
        done)
  in
  let g =
    time "gfib-probe" ~ops (fun () ->
        for i = 0 to ops - 1 do
          hits :=
            !hits + Gfib.iter_candidates_mac gfib (Array.unsafe_get dests (i mod n)) ignore
        done)
  in
  ignore !hits;
  (l.Measure.ns_per_op, g.Measure.ns_per_op)

(* The control-channel messages a lazy run sends most. *)
let mix () =
  let host i = Host.make ~id:(Ids.Host_id.of_int i) ~tenant:(Ids.Tenant_id.of_int 0) in
  let pkt = Packet.data ~src:(host 1) ~dst:(host 2) ~length:1400 () in
  let actions = [ Lazyctrl_openflow.Action.Deliver (Ids.Host_id.of_int 2) ] in
  [|
    Message.Extension (Proto.Keepalive { from = Ids.Switch_id.of_int 3 });
    Message.Extension
      (Proto.Lfib_advert
         {
           origin = Ids.Switch_id.of_int 3;
           added = List.init 8 (fun i -> key (host (100 + i)));
           removed = [];
           full = false;
         });
    Message.Packet_in { packet = pkt; reason = Message.No_match; buffer_id = 7 };
    Message.Flow_mod
      (Message.Add
         {
           Lazyctrl_openflow.Flow_table.priority = 10;
           ofmatch = Lazyctrl_openflow.Ofmatch.of_eth (Packet.eth_of pkt);
           actions;
           idle_timeout = Some (Time.of_sec 60);
           hard_timeout = None;
           cookie = 42;
         });
    Message.Buffer_out { buffer_id = 7; actions };
  |]

let codec ~ops =
  let mix = mix () in
  let frames = Array.map (Wire.encode Proto.wire_ext) mix in
  let k = Array.length mix in
  let bytes = ref 0 in
  let enc =
    time "wire-encode" ~ops (fun () ->
        for i = 0 to ops - 1 do
          bytes := !bytes + Bytes.length (Wire.encode Proto.wire_ext mix.(i mod k))
        done)
  in
  let dec =
    time "wire-decode" ~ops (fun () ->
        for i = 0 to ops - 1 do
          ignore (Wire.decode Proto.wire_ext frames.(i mod k))
        done)
  in
  ignore !bytes;
  (enc, dec)

let measure ~ops topo trace =
  let step = bare_step ~ops in
  let lfib_lookup_ns, gfib_probe_ns = lookups topo trace ~ops in
  let enc, dec = codec ~ops in
  {
    bare_step_ns = step.Measure.ns_per_op;
    lfib_lookup_ns;
    gfib_probe_ns;
    encode_ns = enc.Measure.ns_per_op;
    decode_ns = dec.Measure.ns_per_op;
    words_per_msg = enc.Measure.minor_words_per_op +. dec.Measure.minor_words_per_op;
  }
