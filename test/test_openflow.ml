(* Tests for lazyctrl.openflow: matches, flow tables, messages, channels. *)

open Lazyctrl_net
open Lazyctrl_sim
open Lazyctrl_openflow

let check = Alcotest.check

let host i = Host.make ~id:(Ids.Host_id.of_int i) ~tenant:(Ids.Tenant_id.of_int 0)
let data_eth ?vlan ?(src = 1) ?(dst = 2) () =
  Packet.eth_of (Packet.data ~src:(host src) ~dst:(host dst) ?vlan ~length:100 ())

let arp_eth ?(src = 1) ?(dst = 2) () =
  Packet.eth_of
    (Packet.arp_request ~sender:(host src) ~target_ip:(host dst).Host.ip ())

(* --- Ofmatch ----------------------------------------------------------------- *)

let test_match_any () =
  check Alcotest.bool "any matches data" true (Ofmatch.matches Ofmatch.any (data_eth ()));
  check Alcotest.bool "any matches arp" true (Ofmatch.matches Ofmatch.any (arp_eth ()));
  check Alcotest.int "specificity zero" 0 (Ofmatch.specificity Ofmatch.any)

let test_match_exact_pair () =
  let m = Ofmatch.exact_pair ~src:(host 1).Host.mac ~dst:(host 2).Host.mac in
  check Alcotest.bool "matches" true (Ofmatch.matches m (data_eth ()));
  check Alcotest.bool "wrong dst" false (Ofmatch.matches m (data_eth ~dst:3 ()));
  check Alcotest.bool "wrong src" false (Ofmatch.matches m (data_eth ~src:4 ()));
  check Alcotest.int "specificity" 2 (Ofmatch.specificity m)

let test_match_of_eth_microflow () =
  let e = data_eth ~vlan:5 () in
  let m = Ofmatch.of_eth e in
  check Alcotest.bool "matches itself" true (Ofmatch.matches m e);
  check Alcotest.bool "not another flow" false (Ofmatch.matches m (data_eth ~dst:9 ()));
  let a = arp_eth () in
  let ma = Ofmatch.of_eth a in
  check Alcotest.bool "arp microflow matches" true (Ofmatch.matches ma a);
  check Alcotest.bool "arp-only rejects data" false (Ofmatch.matches ma (data_eth ()))

let test_match_ip_pins_vs_arp () =
  let m = { Ofmatch.any with Ofmatch.dst_ip = Some (host 2).Host.ip } in
  check Alcotest.bool "ip pin rejects arp" false (Ofmatch.matches m (arp_eth ()));
  check Alcotest.bool "ip pin accepts data" true (Ofmatch.matches m (data_eth ()))

let test_match_vlan () =
  let m = { Ofmatch.any with Ofmatch.vlan = Some 7 } in
  check Alcotest.bool "tag match" true (Ofmatch.matches m (data_eth ~vlan:7 ()));
  check Alcotest.bool "tag mismatch" false (Ofmatch.matches m (data_eth ~vlan:8 ()));
  check Alcotest.bool "untagged" false (Ofmatch.matches m (data_eth ()))

let test_subsumes () =
  let wide = Ofmatch.exact_pair ~src:(host 1).Host.mac ~dst:(host 2).Host.mac in
  let narrow = Ofmatch.of_eth (data_eth ()) in
  check Alcotest.bool "any subsumes all" true (Ofmatch.subsumes Ofmatch.any narrow);
  check Alcotest.bool "pair subsumes microflow" true (Ofmatch.subsumes wide narrow);
  check Alcotest.bool "microflow not wider" false (Ofmatch.subsumes narrow wide);
  check Alcotest.bool "reflexive" true (Ofmatch.subsumes wide wide)

(* --- Flow_table ----------------------------------------------------------------- *)

let entry ?(priority = 10) ?(idle = None) ?(hard = None) ?(cookie = 0) m actions =
  {
    Flow_table.priority;
    ofmatch = m;
    actions;
    idle_timeout = idle;
    hard_timeout = hard;
    cookie;
  }

let test_table_priority () =
  let t = Flow_table.create () in
  let now = Time.zero in
  Flow_table.install t ~now (entry ~priority:1 Ofmatch.any [ Action.Drop ]);
  Flow_table.install t ~now
    (entry ~priority:5
       (Ofmatch.exact_pair ~src:(host 1).Host.mac ~dst:(host 2).Host.mac)
       [ Action.Flood_local ]);
  (match Flow_table.lookup t ~now (data_eth ()) with
  | Some [ Action.Flood_local ] -> ()
  | _ -> Alcotest.fail "higher priority must win");
  match Flow_table.lookup t ~now (data_eth ~src:7 ()) with
  | Some [ Action.Drop ] -> ()
  | _ -> Alcotest.fail "fallback to catch-all"

let test_table_replace_same_match () =
  let t = Flow_table.create () in
  let now = Time.zero in
  let m = Ofmatch.exact_pair ~src:(host 1).Host.mac ~dst:(host 2).Host.mac in
  Flow_table.install t ~now (entry m [ Action.Drop ]);
  Flow_table.install t ~now (entry m [ Action.Flood_local ]);
  check Alcotest.int "replaced, not duplicated" 1 (Flow_table.size t);
  match Flow_table.lookup t ~now (data_eth ()) with
  | Some [ Action.Flood_local ] -> ()
  | _ -> Alcotest.fail "replacement must win"

let test_table_idle_timeout () =
  let t = Flow_table.create () in
  let m = Ofmatch.exact_pair ~src:(host 1).Host.mac ~dst:(host 2).Host.mac in
  Flow_table.install t ~now:Time.zero (entry ~idle:(Some (Time.of_sec 5)) m [ Action.Drop ]);
  (* Use at t=4 refreshes the idle deadline. *)
  check Alcotest.bool "hit at 4s" true
    (Flow_table.lookup t ~now:(Time.of_sec 4) (data_eth ()) <> None);
  check Alcotest.bool "still alive at 8s (refreshed)" true
    (Flow_table.lookup t ~now:(Time.of_sec 8) (data_eth ()) <> None);
  check Alcotest.bool "expired at 14s" true
    (Flow_table.lookup t ~now:(Time.of_sec 14) (data_eth ()) = None)

let test_table_hard_timeout () =
  let t = Flow_table.create () in
  let m = Ofmatch.exact_pair ~src:(host 1).Host.mac ~dst:(host 2).Host.mac in
  Flow_table.install t ~now:Time.zero (entry ~hard:(Some (Time.of_sec 5)) m [ Action.Drop ]);
  check Alcotest.bool "hit at 4s" true
    (Flow_table.lookup t ~now:(Time.of_sec 4) (data_eth ()) <> None);
  check Alcotest.bool "hard-expired at 6s despite use" true
    (Flow_table.lookup t ~now:(Time.of_sec 6) (data_eth ()) = None);
  check Alcotest.int "swept" 1 (Flow_table.sweep t ~now:(Time.of_sec 6));
  check Alcotest.int "empty after sweep" 0 (Flow_table.size t)

let test_table_sweep () =
  let t = Flow_table.create () in
  let m = Ofmatch.exact_pair ~src:(host 1).Host.mac ~dst:(host 2).Host.mac in
  Flow_table.install t ~now:Time.zero (entry ~hard:(Some (Time.of_sec 1)) m [ Action.Drop ]);
  Flow_table.install t ~now:Time.zero (entry ~priority:3 Ofmatch.any [ Action.Drop ]);
  check Alcotest.int "one expired" 1 (Flow_table.sweep t ~now:(Time.of_sec 2));
  check Alcotest.int "one left" 1 (Flow_table.size t);
  check Alcotest.int "expiry counted" 1 (Flow_table.stats t).Flow_table.expiries

let test_table_capacity_eviction () =
  let t = Flow_table.create ~capacity:2 () in
  let now = Time.zero in
  let m i = Ofmatch.exact_pair ~src:(host i).Host.mac ~dst:(host (i + 100)).Host.mac in
  Flow_table.install t ~now (entry ~priority:1 (m 1) [ Action.Drop ]);
  Flow_table.install t ~now (entry ~priority:9 (m 2) [ Action.Drop ]);
  Flow_table.install t ~now (entry ~priority:5 (m 3) [ Action.Drop ]);
  check Alcotest.int "bounded" 2 (Flow_table.size t);
  check Alcotest.int "eviction counted" 1 (Flow_table.stats t).Flow_table.evictions;
  (* The lowest-priority entry was evicted. *)
  check Alcotest.bool "low priority gone" true
    (Flow_table.lookup t ~now (data_eth ~src:1 ~dst:101 ()) = None)

let test_table_remove_matching () =
  let t = Flow_table.create () in
  let now = Time.zero in
  Flow_table.install t ~now
    (entry (Ofmatch.exact_pair ~src:(host 1).Host.mac ~dst:(host 2).Host.mac) [ Action.Drop ]);
  Flow_table.install t ~now
    (entry (Ofmatch.exact_pair ~src:(host 1).Host.mac ~dst:(host 3).Host.mac) [ Action.Drop ]);
  let wild = { Ofmatch.any with Ofmatch.src_mac = Some (host 1).Host.mac } in
  check Alcotest.int "both removed" 2 (Flow_table.remove_matching t wild);
  check Alcotest.int "empty" 0 (Flow_table.size t)

let test_table_counters () =
  let t = Flow_table.create () in
  let now = Time.zero in
  Flow_table.install t ~now (entry ~cookie:7 Ofmatch.any [ Action.Drop ]);
  ignore (Flow_table.lookup t ~now (data_eth ()));
  ignore (Flow_table.lookup t ~now (data_eth ()));
  check Alcotest.int "packet count by cookie" 2 (Flow_table.packet_count t ~cookie:7);
  let s = Flow_table.stats t in
  check Alcotest.int "lookups" 2 s.Flow_table.lookups;
  check Alcotest.int "hits" 2 s.Flow_table.hits;
  check Alcotest.int "installs" 1 s.Flow_table.installs

(* Model-based check: against a naive reference (linear scan over an
   association list with OpenFlow semantics), random install/lookup
   sequences must agree. *)
let test_table_model_based =
  let open QCheck2.Gen in
  let gen_ops =
    list_size (int_range 1 60)
      (let* kind = int_range 0 9 in
       let* src = int_range 0 3 in
       let* dst = int_range 0 3 in
       let* prio = int_range 1 3 in
       return (kind, src, dst, prio))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200 ~name:"flow table agrees with naive model"
       gen_ops
       (fun ops ->
         let t = Flow_table.create () in
         (* reference: newest-first list of (priority, match, cookie) *)
         let model = ref [] in
         let now = Time.zero in
         let ok = ref true in
         List.iter
           (fun (kind, src, dst, prio) ->
             let m =
               Ofmatch.exact_pair ~src:(host src).Host.mac ~dst:(host (dst + 10)).Host.mac
             in
             if kind < 6 then begin
               (* install *)
               let cookie = (prio * 100) + (src * 10) + dst in
               Flow_table.install t ~now
                 (entry ~priority:prio ~cookie m [ Action.Drop ]);
               model :=
                 (prio, m, cookie)
                 :: List.filter
                      (fun (p, m', _) -> not (p = prio && Ofmatch.equal m' m))
                      !model
             end
             else begin
               (* lookup and compare against the model's winner *)
               let eth = data_eth ~src ~dst:(dst + 10) () in
               let expected =
                 List.fold_left
                   (fun best (p, m', c) ->
                     if Ofmatch.matches m' eth then
                       match best with
                       | Some (bp, _) when bp >= p -> best
                       | _ -> Some (p, c)
                     else best)
                   None (List.rev !model)
                 (* rev: older first, so the later (newer) entry wins ties
                    via the [>=] above when scanned oldest-to-newest *)
               in
               let got = Flow_table.lookup t ~now eth in
               match (expected, got) with
               | None, None -> ()
               | Some _, Some _ -> ()
               | _ -> ok := false
             end)
           ops;
         !ok && Flow_table.size t = List.length !model))

(* --- Message -------------------------------------------------------------------- *)

let test_message_helpers () =
  let pkt = Packet.data ~src:(host 1) ~dst:(host 2) ~length:10 () in
  let pin =
    Message.Packet_in
      { packet = pkt; reason = Message.No_match; buffer_id = Message.no_buffer }
  in
  check Alcotest.bool "is_packet_in" true (Message.is_packet_in pin);
  check Alcotest.bool "hello isn't" false (Message.is_packet_in Message.Hello);
  let size = Message.size_estimate (fun (_ : unit) -> 0) pin in
  check Alcotest.bool "size includes packet" true (size > Packet.size_on_wire pkt)

(* --- Channel -------------------------------------------------------------------- *)

let test_channel_delivery_latency () =
  let e = Engine.create () in
  let ch = Channel.create e ~post:(Engine.post e) ~latency:(Time.of_ms 2) ~name:"c" () in
  let got = ref [] in
  Channel.set_receiver ch (fun m -> got := (m, Time.to_ns (Engine.now e)) :: !got);
  check Alcotest.bool "send ok" true (Channel.send ch "x");
  Engine.run e;
  (match !got with
  | [ ("x", t) ] -> check Alcotest.int "latency applied" 2_000_000 t
  | _ -> Alcotest.fail "expected one delivery");
  check Alcotest.int "sent" 1 (Channel.sent ch);
  check Alcotest.int "delivered" 1 (Channel.delivered ch)

let test_channel_fifo_under_jitter () =
  let e = Engine.create () in
  (* Decreasing jitter would reorder without the FIFO floor. *)
  let jitters = ref [ Time.of_ms 10; Time.of_ms 0 ] in
  let jitter () =
    match !jitters with
    | j :: rest ->
        jitters := rest;
        j
    | [] -> Time.zero
  in
  let ch = Channel.create e ~post:(Engine.post e) ~latency:(Time.of_ms 1) ~jitter ~name:"c" () in
  let got = ref [] in
  Channel.set_receiver ch (fun m -> got := m :: !got);
  ignore (Channel.send ch 1);
  ignore (Channel.send ch 2);
  Engine.run e;
  check (Alcotest.list Alcotest.int) "FIFO preserved" [ 1; 2 ] (List.rev !got)

let test_channel_failure () =
  let e = Engine.create () in
  let ch = Channel.create e ~post:(Engine.post e) ~latency:(Time.of_ms 1) ~name:"c" () in
  let got = ref 0 in
  Channel.set_receiver ch (fun () -> incr got);
  ignore (Channel.send ch ());
  Channel.fail ch;
  (* In-flight message dies with the channel epoch. *)
  check Alcotest.bool "send on dead channel" false (Channel.send ch ());
  Engine.run e;
  check Alcotest.int "nothing delivered" 0 !got;
  check Alcotest.int "drops counted" 2 (Channel.dropped ch);
  Channel.repair ch;
  ignore (Channel.send ch ());
  Engine.run e;
  check Alcotest.int "delivered after repair" 1 !got

let test_channel_no_receiver () =
  let e = Engine.create () in
  let ch = Channel.create e ~post:(Engine.post e) ~latency:Time.zero ~name:"c" () in
  ignore (Channel.send ch ());
  Engine.run e;
  check Alcotest.int "dropped without receiver" 1 (Channel.dropped ch)

(* Multicast oracle: one [multicast] over k channels must behave like k
   [send]s on twin channels — same names, so the same [Prng.named] loss
   streams.  A case is a set of channels (some down, some lossy and
   duplicating) and a script of multicasts, fails, repairs and clock
   advances, played on both worlds.  Both must show the same deliveries
   (time, channel, message), the same per-channel counters and the same
   wire-hook calls; a counting codec must see one encode and one decode
   per multicast that finds a channel up, and none otherwise. *)
type mc_op = Mc of int list | Mc_fail of int | Mc_repair of int | Mc_wait of int

type mc_world = {
  chans : string Channel.t array;
  engine : Engine.t;
  got : (int * string * string) list ref;
  hooks : (string * int) list ref;
  encodes : int ref;
  decodes : int ref;
}

let mc_world ~codec specs =
  let engine = Engine.create () in
  let root = Lazyctrl_util.Prng.create 17 in
  let got = ref [] and hooks = ref [] and encodes = ref 0 and decodes = ref 0 in
  let chans =
    Array.mapi
      (fun i (latency_us, loss, up) ->
        let name = Printf.sprintf "c%d" i in
        let ch =
          Channel.create engine ~post:(Engine.post engine)
            ~latency:(Time.of_us latency_us) ~name ()
        in
        Channel.set_receiver ch (fun m ->
            got := (Time.to_ns (Engine.now engine), name, m) :: !got);
        (match loss with
        | None -> ()
        | Some spec ->
            Channel.set_loss ch
              ~rng:(Lazyctrl_util.Prng.named root ("loss:" ^ name))
              spec);
        if codec then begin
          Channel.set_codec ch
            ~encode:(fun s ->
              incr encodes;
              Bytes.of_string s)
            ~decode:(fun b ->
              incr decodes;
              Bytes.to_string b);
          Channel.set_wire_hook ch (fun n -> hooks := (name, n) :: !hooks)
        end;
        if not up then Channel.fail ch;
        ch)
      specs
  in
  { chans; engine; got; hooks; encodes; decodes }

let mc_counters w =
  Array.to_list
    (Array.map
       (fun ch ->
         Channel.
           [
             sent ch; delivered ch; bytes_sent ch; bytes_delivered ch;
             lost ch; duplicated ch; dropped ch;
           ])
       w.chans)

let test_channel_multicast_oracle =
  let open QCheck2.Gen in
  let gen_loss =
    oneof
      [
        return None;
        map (fun p -> Some (Channel.uniform_loss ~dup:0.3 p)) (float_range 0.0 0.6);
        return (Some (Channel.bursty_loss ~dup:0.2 ~base:0.1 ~burst:0.8 ()));
      ]
  in
  let gen_spec = triple (int_range 1 500) gen_loss (map (fun n -> n > 0) (int_range 0 3)) in
  let gen_case =
    let* specs = array_size (int_range 1 6) gen_spec in
    let k = Array.length specs in
    let gen_op =
      frequency
        [
          (6, map (fun l -> Mc l) (list_size (int_range 0 8) (int_range 0 (k - 1))));
          (1, map (fun i -> Mc_fail i) (int_range 0 (k - 1)));
          (1, map (fun i -> Mc_repair i) (int_range 0 (k - 1)));
          (2, map (fun us -> Mc_wait us) (int_range 0 800));
        ]
    in
    let* ops = list_size (int_range 1 25) gen_op in
    let* codec = bool in
    return (specs, ops, codec)
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300
       ~name:"one multicast behaves like a send per channel" gen_case
       (fun (specs, ops, codec) ->
         let mc = mc_world ~codec specs and tw = mc_world ~codec specs in
         let codec_ok = ref true in
         List.iteri
           (fun n op ->
             match op with
             | Mc idx ->
                 let msg = Printf.sprintf "m%d" n in
                 let chans w = List.map (fun i -> w.chans.(i)) idx in
                 let passes =
                   if codec && List.exists Channel.is_up (chans mc) then 1 else 0
                 in
                 let e0 = !(mc.encodes) and d0 = !(mc.decodes) in
                 Channel.multicast (chans mc) msg;
                 if !(mc.encodes) - e0 <> passes || !(mc.decodes) - d0 <> passes
                 then codec_ok := false;
                 List.iter (fun ch -> ignore (Channel.send ch msg)) (chans tw)
             | Mc_fail i ->
                 Channel.fail mc.chans.(i);
                 Channel.fail tw.chans.(i)
             | Mc_repair i ->
                 Channel.repair mc.chans.(i);
                 Channel.repair tw.chans.(i)
             | Mc_wait us ->
                 let until w = Time.add (Engine.now w.engine) (Time.of_us us) in
                 Engine.run ~until:(until mc) mc.engine;
                 Engine.run ~until:(until tw) tw.engine)
           ops;
         Engine.run mc.engine;
         Engine.run tw.engine;
         !codec_ok
         && List.equal ( = ) !(mc.got) !(tw.got)
         && List.equal ( = ) !(mc.hooks) !(tw.hooks)
         && List.equal (List.equal Int.equal) (mc_counters mc) (mc_counters tw)))

let () =
  Alcotest.run "openflow"
    [
      ( "ofmatch",
        [
          Alcotest.test_case "any" `Quick test_match_any;
          Alcotest.test_case "exact pair" `Quick test_match_exact_pair;
          Alcotest.test_case "microflow" `Quick test_match_of_eth_microflow;
          Alcotest.test_case "ip pins vs arp" `Quick test_match_ip_pins_vs_arp;
          Alcotest.test_case "vlan" `Quick test_match_vlan;
          Alcotest.test_case "subsumes" `Quick test_subsumes;
        ] );
      ( "flow_table",
        [
          Alcotest.test_case "priority" `Quick test_table_priority;
          Alcotest.test_case "replace same match" `Quick test_table_replace_same_match;
          Alcotest.test_case "idle timeout" `Quick test_table_idle_timeout;
          Alcotest.test_case "hard timeout" `Quick test_table_hard_timeout;
          Alcotest.test_case "sweep" `Quick test_table_sweep;
          Alcotest.test_case "capacity eviction" `Quick test_table_capacity_eviction;
          Alcotest.test_case "remove matching" `Quick test_table_remove_matching;
          Alcotest.test_case "counters" `Quick test_table_counters;
          test_table_model_based;
        ] );
      ("message", [ Alcotest.test_case "helpers" `Quick test_message_helpers ]);
      ( "channel",
        [
          Alcotest.test_case "delivery latency" `Quick test_channel_delivery_latency;
          Alcotest.test_case "FIFO under jitter" `Quick test_channel_fifo_under_jitter;
          Alcotest.test_case "failure/repair" `Quick test_channel_failure;
          Alcotest.test_case "no receiver" `Quick test_channel_no_receiver;
          test_channel_multicast_oracle;
        ] );
    ]
