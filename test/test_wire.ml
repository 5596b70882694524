(* Wire-codec tests (DESIGN.md §13).

   - qcheck round-trips: decode ∘ encode = id over randomized messages,
     for both the baseline (unit) extension and the full LazyCtrl Proto
     extension, plus exact-size agreement with [frame_size];
   - deterministic per-constructor coverage: every Message.t and every
     Proto.t constructor round-trips (the qcheck generators only cover
     them probabilistically);
   - strict decoding: every strict prefix of a valid frame, a bad
     version, an unknown type tag, and trailing bytes all raise;
   - the buffered-punt end-to-end path on the baseline plane (miss →
     buffer_id punt → FlowMod + BufferOut → delivery);
   - the byte-accounting cross-check: the channel counters and the
     metrics recorder agree exactly, and same-seed runs produce identical
     byte totals. *)

open Lazyctrl_net
open Lazyctrl_sim
open Lazyctrl_openflow
open Lazyctrl_topo
open Lazyctrl_core
open Lazyctrl_baseline
module Wire = Lazyctrl_wire.Wire
module Proto = Lazyctrl_switch.Proto
module Prng = Lazyctrl_util.Prng
module Recorder = Lazyctrl_metrics.Recorder

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let rejects f =
  match f () with exception Invalid_argument _ -> true | _ -> false

(* --- generators ------------------------------------------------------------ *)

let gen_mac = QCheck2.Gen.(map Mac.of_int (int_range 0 ((1 lsl 48) - 1)))
let gen_ip = QCheck2.Gen.(map Ipv4.of_int (int_range 0 0xFFFFFFFF))
let gen_vlan = QCheck2.Gen.(opt (int_range 0 0xFFF))

let gen_host =
  let open QCheck2.Gen in
  let* id = int_range 0 100_000 in
  let* tenant = int_range 0 1_000 in
  return
    (Host.make ~id:(Ids.Host_id.of_int id)
       ~tenant:(Ids.Tenant_id.of_int tenant))

let gen_plain_packet =
  let open QCheck2.Gen in
  let* src = gen_host in
  let* dst = gen_host in
  let* vlan = gen_vlan in
  frequency
    [
      ( 3,
        let* protocol = int_range 0 255 in
        let* src_port = int_range 0 0xFFFF in
        let* dst_port = int_range 0 0xFFFF in
        let* length = int_range 0 9000 in
        return
          (Packet.data ~src ~dst ?vlan ~protocol ~src_port ~dst_port ~length
             ()) );
      ( 1,
        let* target_ip = gen_ip in
        return (Packet.arp_request ~sender:src ~target_ip ?vlan ()) );
      (1, return (Packet.arp_reply ~sender:src ~requester:dst ?vlan ()));
    ]

let gen_packet =
  let open QCheck2.Gen in
  let* p = gen_plain_packet in
  let* wrap = bool in
  if not wrap then return p
  else
    let* outer_src = gen_ip in
    let* outer_dst = gen_ip in
    match p with
    | Packet.Plain eth -> return (Packet.encap ~outer_src ~outer_dst eth)
    | Packet.Encap _ -> return p

let gen_action =
  let open QCheck2.Gen in
  oneof
    [
      map (fun h -> Action.Deliver (Ids.Host_id.of_int h)) (int_range 0 100_000);
      map (fun ip -> Action.Encap ip) gen_ip;
      return Action.Flood_local;
      return Action.To_controller;
      return Action.Drop;
    ]

let gen_actions = QCheck2.Gen.(list_size (int_range 0 4) gen_action)

let gen_ofmatch =
  let open QCheck2.Gen in
  let* src_mac = opt gen_mac in
  let* dst_mac = opt gen_mac in
  let* vlan = gen_vlan in
  let* src_ip = opt gen_ip in
  let* dst_ip = opt gen_ip in
  let* protocol = opt (int_range 0 255) in
  let* src_port = opt (int_range 0 0xFFFF) in
  let* dst_port = opt (int_range 0 0xFFFF) in
  let* arp_only = bool in
  return
    {
      Ofmatch.src_mac;
      dst_mac;
      vlan;
      src_ip;
      dst_ip;
      protocol;
      src_port;
      dst_port;
      arp_only;
    }

let gen_time = QCheck2.Gen.(map Time.of_ms (int_range 0 10_000_000))

let gen_entry =
  let open QCheck2.Gen in
  let* priority = int_range 0 0xFFFF in
  let* ofmatch = gen_ofmatch in
  let* actions = gen_actions in
  let* idle_timeout = opt gen_time in
  let* hard_timeout = opt gen_time in
  let* cookie = int in
  return
    {
      Lazyctrl_openflow.Flow_table.priority;
      ofmatch;
      actions;
      idle_timeout;
      hard_timeout;
      cookie;
    }

let gen_flow_mod =
  let open QCheck2.Gen in
  oneof
    [
      map (fun e -> Message.Add e) gen_entry;
      map (fun m -> Message.Delete m) gen_ofmatch;
    ]

let gen_buffer_id =
  QCheck2.Gen.(
    oneof [ return Message.no_buffer; int_range 0 1_000_000_000 ])

let gen_reason = QCheck2.Gen.oneofl [ Message.No_match; Message.Action_punt ]

let gen_message gen_ext =
  let open QCheck2.Gen in
  frequency
    [
      (1, return Message.Hello);
      (1, map (fun n -> Message.Echo_request n) int);
      (1, map (fun n -> Message.Echo_reply n) int);
      ( 3,
        let* packet = gen_packet in
        let* reason = gen_reason in
        let* buffer_id = gen_buffer_id in
        return (Message.Packet_in { packet; reason; buffer_id }) );
      ( 2,
        let* packet = gen_packet in
        let* actions = gen_actions in
        return (Message.Packet_out { packet; actions }) );
      ( 2,
        let* buffer_id = int_range 0 1_000_000_000 in
        let* actions = gen_actions in
        return (Message.Buffer_out { buffer_id; actions }) );
      (2, map (fun fm -> Message.Flow_mod fm) gen_flow_mod);
      (3, map (fun e -> Message.Extension e) gen_ext);
    ]

let gen_sw = QCheck2.Gen.(map Ids.Switch_id.of_int (int_range 0 10_000))
let gen_group = QCheck2.Gen.(map Ids.Group_id.of_int (int_range 0 1_000))

let gen_key =
  let open QCheck2.Gen in
  let* mac = gen_mac in
  let* ip = gen_ip in
  let* tenant = int_range 0 1_000 in
  return { Proto.mac; ip; tenant = Ids.Tenant_id.of_int tenant }

let gen_keys = QCheck2.Gen.(list_size (int_range 0 5) gen_key)

let gen_delta =
  let open QCheck2.Gen in
  let* origin = gen_sw in
  let* added = gen_keys in
  let* removed = gen_keys in
  let* full = bool in
  return { Proto.origin; added; removed; full }

(* Every Proto constructor except the two message-boxing envelopes
   (Relay/Seq), which need a message generator and are added below. *)
let gen_proto_base =
  let open QCheck2.Gen in
  frequency
    [
      ( 1,
        let* group = gen_group in
        let* members = list_size (int_range 0 5) gen_sw in
        let* designated = gen_sw in
        let* backups = list_size (int_range 0 3) gen_sw in
        let* sync_period = gen_time in
        let* keepalive_period = gen_time in
        return
          (Proto.Group_config
             {
               group;
               members;
               designated;
               backups;
               sync_period;
               keepalive_period;
             }) );
      ( 1,
        let* lfibs =
          list_size (int_range 0 3)
            (let* sw = gen_sw in
             let* keys = gen_keys in
             return (sw, keys))
        in
        return (Proto.Group_sync { lfibs }) );
      (2, map (fun d -> Proto.Lfib_advert d) gen_delta);
      ( 1,
        let* origin = gen_sw in
        let* intensity =
          list_size (int_range 0 4)
            (let* sw = gen_sw in
             let* n = int_range 0 1_000_000 in
             return (sw, n))
        in
        return (Proto.Member_report { origin; intensity }) );
      ( 1,
        let* group = gen_group in
        let* deltas = list_size (int_range 0 3) gen_delta in
        let* intensity =
          list_size (int_range 0 3)
            (let* a = gen_sw in
             let* b = gen_sw in
             let* n = int_range 0 1_000_000 in
             return (a, b, n))
        in
        return (Proto.State_report { group; deltas; intensity }) );
      ( 1,
        let* origin = gen_sw in
        let* packet = gen_packet in
        return (Proto.Group_arp { origin; packet }) );
      ( 1,
        let* packet = gen_packet in
        return (Proto.Arp_broadcast { packet }) );
      ( 1,
        let* origin = gen_sw in
        let* packet = gen_packet in
        return (Proto.Arp_escalate { origin; packet }) );
      ( 1,
        let* at = gen_sw in
        let* dst = gen_mac in
        return (Proto.False_positive { at; dst }) );
      (1, map (fun from -> Proto.Keepalive { from }) gen_sw);
      ( 1,
        let* observer = gen_sw in
        let* missing = gen_sw in
        let* direction = oneofl [ `Up; `Down ] in
        return (Proto.Ring_alarm { observer; missing; direction }) );
      ( 1,
        let* term = int_range 0 1_000_000 in
        let* master = int_range 0 1_000 in
        return (Proto.Rehome { term; master }) );
      ( 1,
        let* epoch = int_range 0 1_000_000 in
        let* cum = oneof [ return (-1); int_range 0 1_000_000 ] in
        return (Proto.Ack { epoch; cum }) );
    ]

let gen_proto =
  let open QCheck2.Gen in
  frequency
    [
      (6, gen_proto_base);
      ( 1,
        let* origin = gen_sw in
        let* boxed = gen_message gen_proto_base in
        return (Proto.Relay { origin; boxed }) );
      ( 1,
        let* epoch = int_range 0 1_000 in
        let* seq = int_range 0 1_000_000 in
        let* payload = gen_message gen_proto_base in
        return (Proto.Seq { epoch; seq; payload }) );
    ]

(* Messages are pure structural data (ints, ids, lists, options — no
   floats or functions), so polymorphic equality is exact here. *)
let roundtrip ext m =
  let frame = Wire.encode ext m in
  Bytes.length frame = Wire.frame_size ext m && Wire.decode ext frame = m

let test_unit_roundtrip =
  qtest ~count:200 "unit-ext round-trip: decode (encode m) = m"
    (gen_message (QCheck2.Gen.return ()))
    (roundtrip Wire.unit_ext)

let test_proto_roundtrip =
  qtest ~count:200 "proto-ext round-trip: decode (encode m) = m"
    (gen_message gen_proto)
    (roundtrip Proto.wire_ext)

let test_proto_wire_size =
  qtest ~count:200 "Proto.wire_size is byte-exact against to_wire/of_wire"
    gen_proto
    (fun p ->
      let size = Proto.wire_size p in
      let w = Wire.W.create size in
      Proto.to_wire w p;
      w.Wire.W.pos = size && Proto.of_wire (Wire.R.of_bytes w.Wire.W.buf) = p)

(* --- deterministic per-constructor coverage -------------------------------- *)

let host ?(tenant = 0) i =
  Host.make ~id:(Ids.Host_id.of_int i) ~tenant:(Ids.Tenant_id.of_int tenant)

let sw = Ids.Switch_id.of_int

let data_pkt =
  Packet.data ~src:(host 1) ~dst:(host 2) ~vlan:5 ~protocol:6 ~src_port:4242
    ~dst_port:80 ~length:1400 ()

let arp_pkt = Packet.arp_request ~sender:(host 1) ~target_ip:(Ipv4.of_int 42) ()

let encap_pkt =
  match data_pkt with
  | Packet.Plain eth ->
      Packet.encap ~outer_src:(Ipv4.of_int 7) ~outer_dst:(Ipv4.of_int 9) eth
  | Packet.Encap _ -> assert false

let sample_key =
  {
    Proto.mac = Mac.of_int 0xAABBCCDDEEFF;
    ip = Ipv4.of_int 0x0A000001;
    tenant = Ids.Tenant_id.of_int 3;
  }

let sample_delta =
  { Proto.origin = sw 1; added = [ sample_key ]; removed = []; full = false }

let sample_entry =
  {
    Lazyctrl_openflow.Flow_table.priority = 10;
    ofmatch = Ofmatch.of_eth (Packet.eth_of encap_pkt);
    actions = [ Action.Deliver (Ids.Host_id.of_int 2) ];
    idle_timeout = Some (Time.of_sec 60);
    hard_timeout = None;
    cookie = 42;
  }

let proto_samples =
  [
    Proto.Group_config
      {
        group = Ids.Group_id.of_int 1;
        members = [ sw 1; sw 2; sw 3 ];
        designated = sw 2;
        backups = [ sw 1 ];
        sync_period = Time.of_sec 10;
        keepalive_period = Time.of_sec 5;
      };
    Proto.Group_sync { lfibs = [ (sw 1, [ sample_key ]); (sw 2, []) ] };
    Proto.Lfib_advert sample_delta;
    Proto.Member_report { origin = sw 1; intensity = [ (sw 2, 7); (sw 3, 0) ] };
    Proto.State_report
      {
        group = Ids.Group_id.of_int 1;
        deltas = [ sample_delta; { sample_delta with Proto.full = true } ];
        intensity = [ (sw 1, sw 2, 9) ];
      };
    Proto.Group_arp { origin = sw 1; packet = arp_pkt };
    Proto.Arp_broadcast { packet = arp_pkt };
    Proto.Arp_escalate { origin = sw 2; packet = arp_pkt };
    Proto.False_positive { at = sw 3; dst = Mac.of_int 0x123456 };
    Proto.Keepalive { from = sw 4 };
    Proto.Ring_alarm { observer = sw 1; missing = sw 2; direction = `Down };
    Proto.Rehome { term = 3; master = 1 };
    Proto.Relay
      { origin = sw 5; boxed = Message.Flow_mod (Message.Add sample_entry) };
    Proto.Seq
      {
        epoch = 1;
        seq = 2;
        payload = Message.Extension (Proto.Keepalive { from = sw 3 });
      };
    Proto.Ack { epoch = 1; cum = -1 };
  ]

let message_samples ext_sample =
  [
    Message.Hello;
    Message.Echo_request 7;
    Message.Echo_reply (-7);
    Message.Packet_in
      { packet = data_pkt; reason = Message.No_match; buffer_id = Message.no_buffer };
    Message.Packet_in
      { packet = data_pkt; reason = Message.No_match; buffer_id = 3 };
    Message.Packet_in
      { packet = arp_pkt; reason = Message.Action_punt; buffer_id = Message.no_buffer };
    Message.Packet_in
      { packet = encap_pkt; reason = Message.No_match; buffer_id = 12 };
    Message.Packet_out
      { packet = data_pkt; actions = [ Action.Deliver (Ids.Host_id.of_int 2) ] };
    Message.Buffer_out { buffer_id = 3; actions = [ Action.Flood_local ] };
    Message.Flow_mod (Message.Add sample_entry);
    Message.Flow_mod (Message.Delete Ofmatch.any);
    Message.Extension ext_sample;
  ]

let test_constructor_coverage () =
  List.iter
    (fun m ->
      Alcotest.(check bool) "unit-ext sample round-trips" true
        (roundtrip Wire.unit_ext m))
    (message_samples ());
  List.iter
    (fun p ->
      Alcotest.(check bool) "proto sample round-trips" true
        (roundtrip Proto.wire_ext (Message.Extension p)))
    proto_samples

let test_buffered_packet_in_smaller () =
  let full =
    Message.Packet_in
      { packet = data_pkt; reason = Message.No_match; buffer_id = Message.no_buffer }
  in
  let buffered =
    Message.Packet_in
      { packet = data_pkt; reason = Message.No_match; buffer_id = 3 }
  in
  let fs = Wire.frame_size Wire.unit_ext full in
  let bs = Wire.frame_size Wire.unit_ext buffered in
  (* the buffered punt omits the 1400 payload bytes — that saving is the
     point of switch-side buffering *)
  Alcotest.(check bool) "buffered punt omits the payload padding" true
    (fs - bs >= 1400)

(* --- strict decoding ------------------------------------------------------- *)

let test_truncation_rejected () =
  let check_all_prefixes m =
    let frame = Wire.encode Proto.wire_ext m in
    for len = 0 to Bytes.length frame - 1 do
      Alcotest.(check bool)
        (Printf.sprintf "prefix of %d/%d bytes rejected" len
           (Bytes.length frame))
        true
        (rejects (fun () -> Wire.decode Proto.wire_ext (Bytes.sub frame 0 len)))
    done
  in
  check_all_prefixes (Message.Flow_mod (Message.Add sample_entry));
  check_all_prefixes
    (Message.Packet_in
       { packet = arp_pkt; reason = Message.No_match; buffer_id = 3 });
  check_all_prefixes (Message.Extension (Proto.Lfib_advert sample_delta))

let test_corruption_rejected () =
  let frame () = Wire.encode Proto.wire_ext (Message.Extension (Proto.Keepalive { from = sw 1 })) in
  (* bad version (offset 4 in the fixed header) *)
  let f = frame () in
  Bytes.set f 4 '\002';
  Alcotest.(check bool) "bad version rejected" true
    (rejects (fun () -> Wire.decode Proto.wire_ext f));
  (* unknown message type tag (first byte after the 8-byte header) *)
  let f = frame () in
  Bytes.set f 8 '\255';
  Alcotest.(check bool) "unknown type tag rejected" true
    (rejects (fun () -> Wire.decode Proto.wire_ext f));
  (* trailing bytes beyond the declared length *)
  let f = Bytes.cat (frame ()) (Bytes.make 3 '\000') in
  Alcotest.(check bool) "buffer longer than length prefix rejected" true
    (rejects (fun () -> Wire.decode Proto.wire_ext f));
  (* length prefix covering more than the message body *)
  let f = Bytes.cat (frame ()) (Bytes.make 4 '\000') in
  assert (Bytes.length f < 256);
  Bytes.set f 3 (Char.chr (Bytes.length f));
  Alcotest.(check bool) "length prefix past the message body rejected" true
    (rejects (fun () -> Wire.decode Proto.wire_ext f));
  Alcotest.(check bool) "empty buffer rejected" true
    (rejects (fun () -> Wire.decode Proto.wire_ext Bytes.empty))

(* --- writer/reader primitives and mid-level codecs ------------------------- *)

let test_primitives () =
  let w = Wire.W.create 27 in
  Wire.W.u8 w 0xAB;
  Wire.W.u16 w 0xBEEF;
  Wire.W.u32 w 0xDEADBEEF;
  Wire.W.i64 w (-42);
  Wire.W.mac w (Mac.of_int 0x112233445566);
  Wire.W.ip w (Ipv4.of_int 0x0A0B0C0D);
  Wire.W.pad w 2;
  Alcotest.(check int) "writer filled the buffer exactly" 27 w.Wire.W.pos;
  let r = Wire.R.of_bytes w.Wire.W.buf in
  Alcotest.(check int) "u8" 0xAB (Wire.R.u8 r);
  Alcotest.(check int) "u16" 0xBEEF (Wire.R.u16 r);
  Alcotest.(check int) "u32" 0xDEADBEEF (Wire.R.u32 r);
  Alcotest.(check int) "i64 sign-extends" (-42) (Wire.R.i64 r);
  Alcotest.(check bool) "mac" true (Mac.equal (Mac.of_int 0x112233445566) (Wire.R.mac r));
  Alcotest.(check bool) "ip" true (Ipv4.equal (Ipv4.of_int 0x0A0B0C0D) (Wire.R.ip r));
  Wire.R.skip r 2;
  Alcotest.(check int) "reader consumed the buffer exactly" 27 r.Wire.R.pos;
  (* range guards: encoding never silently truncates *)
  Alcotest.(check bool) "u16 out of range rejected" true
    (rejects (fun () -> Wire.W.u16 (Wire.W.create 8) 0x1_0000));
  Alcotest.(check bool) "u32 negative rejected" true
    (rejects (fun () -> Wire.W.u32 (Wire.W.create 8) (-1)));
  Alcotest.(check bool) "writer overrun rejected" true
    (rejects (fun () -> Wire.W.i64 (Wire.W.create 4) 0));
  Alcotest.(check bool) "reader overrun rejected" true
    (rejects (fun () -> Wire.R.u32 (Wire.R.of_bytes (Bytes.create 2))))

let test_packet_and_message_codecs () =
  List.iter
    (fun p ->
      let sz = Wire.packet_size ~full:false p in
      let w = Wire.W.create sz in
      Wire.write_packet w ~full:false p;
      Alcotest.(check int) "header-only packet size exact" sz w.Wire.W.pos;
      Alcotest.(check bool) "header-only packet round-trips" true
        (Wire.read_packet (Wire.R.of_bytes w.Wire.W.buf) = p);
      let szf = Wire.packet_size ~full:true p in
      let wf = Wire.W.create szf in
      Wire.write_packet wf ~full:true p;
      Alcotest.(check int) "full packet size exact" szf wf.Wire.W.pos;
      Alcotest.(check bool) "full packet round-trips" true
        (Wire.read_full_packet (Wire.R.of_bytes wf.Wire.W.buf) = p))
    [ data_pkt; arp_pkt; encap_pkt ];
  (* the full form materializes the payload as padding *)
  Alcotest.(check int) "payload materialized as padding" 1400
    (Wire.packet_size ~full:true data_pkt
    - Wire.packet_size ~full:false data_pkt);
  let msg =
    Message.Packet_out
      { packet = data_pkt; actions = [ Action.Deliver (Ids.Host_id.of_int 2) ] }
  in
  let msz = Wire.message_size Wire.unit_ext msg in
  let w = Wire.W.create msz in
  Wire.write_message Wire.unit_ext w msg;
  Alcotest.(check int) "message size exact" msz w.Wire.W.pos;
  Alcotest.(check bool) "message round-trips without framing" true
    (Wire.read_message Wire.unit_ext (Wire.R.of_bytes w.Wire.W.buf) = msg);
  Alcotest.(check int) "frame_size = header_size + message_size"
    (Wire.header_size + msz)
    (Wire.frame_size Wire.unit_ext msg)

(* --- buffer pool ----------------------------------------------------------- *)

let test_buffer_pool () =
  let pool = Buffer_pool.create ~capacity:2 ~ttl:(Time.of_sec 1) () in
  let now = Time.zero in
  let id0 = Buffer_pool.store pool ~now data_pkt in
  let id1 = Buffer_pool.store pool ~now arp_pkt in
  Alcotest.(check bool) "two slots stored" true
    (Option.is_some id0 && Option.is_some id1);
  Alcotest.(check int) "pool occupancy" 2 (Buffer_pool.in_use pool ~now);
  Alcotest.(check (option int)) "full pool refuses the third store" None
    (Buffer_pool.store pool ~now encap_pkt);
  let id0 = Option.get id0 and id1 = Option.get id1 in
  Alcotest.(check bool) "take returns the parked packet" true
    (Buffer_pool.take pool ~now id0 = Some data_pkt);
  Alcotest.(check bool) "double release misses" true
    (Buffer_pool.take pool ~now id0 = None);
  Buffer_pool.cancel pool id1;
  Alcotest.(check int) "cancel frees the slot" 0 (Buffer_pool.in_use pool ~now);
  let id2 = Option.get (Buffer_pool.store pool ~now data_pkt) in
  Alcotest.(check bool) "buffer ids are lifetime-unique" true
    (id2 <> id0 && id2 <> id1);
  let later = Time.add now (Time.of_sec 2) in
  Alcotest.(check int) "ttl expires live slots" 0
    (Buffer_pool.in_use pool ~now:later);
  Alcotest.(check bool) "expired id no longer releases" true
    (Buffer_pool.take pool ~now:later id2 = None);
  let s = Buffer_pool.stats pool in
  Alcotest.(check int) "one refused store counted" 1 s.Buffer_pool.full_fallbacks;
  Alcotest.(check int) "one release counted" 1 s.Buffer_pool.released;
  Alcotest.(check bool) "misses counted" true (s.Buffer_pool.misses >= 1)

(* --- end-to-end: buffered punts and byte accounting ------------------------ *)

let build_topo seed =
  Placement.generate ~rng:(Prng.create seed)
    {
      Placement.n_switches = 8;
      n_tenants = 3;
      tenant_size_min = 6;
      tenant_size_max = 10;
      racks_per_tenant = 2;
      stray_fraction = 0.1;
    }

let inject_flows net topo seed n =
  let rng = Prng.create (seed * 37) in
  let hosts = Array.of_list (Topology.hosts topo) in
  for i = 1 to n do
    let a = Prng.choose rng hosts and b = Prng.choose rng hosts in
    if not (Host.equal a b) then
      ignore
        (Engine.schedule_at (Network.engine net)
           ~at:(Time.add (Time.of_sec 10) (Time.of_ms (i * 1000)))
           (fun () ->
             Network.start_flow net ~src:a.Host.id ~dst:b.Host.id ~bytes:3000
               ~packets:2))
  done

let test_buffered_punt_e2e () =
  let seed = 11 in
  let topo = build_topo seed in
  let net =
    Network.create
      ~params:(Params.with_seed seed Params.default)
      ~mode:Network.Openflow ~topo ~horizon:(Time.of_min 10) ()
  in
  Network.bootstrap net ();
  inject_flows net topo seed 30;
  Network.run net ~until:(Time.of_min 10);
  let hm = Network.host_model net in
  Alcotest.(check bool) "flows were started" true
    (Host_model.flows_started hm > 0);
  Alcotest.(check int) "every started flow delivered"
    (Host_model.flows_started hm)
    (Host_model.flows_delivered hm);
  let stored, released =
    List.fold_left
      (fun (st, rel) sid ->
        match Network.of_switch net sid with
        | None -> (st, rel)
        | Some sw ->
            let s = Of_switch.buffer_stats sw in
            (st + s.Buffer_pool.stored, rel + s.Buffer_pool.released))
      (0, 0) (Topology.switches topo)
  in
  Alcotest.(check bool) "misses parked packets in the buffer pools" true
    (stored > 0);
  Alcotest.(check bool) "controller replies released parked packets" true
    (released > 0);
  (match Network.of_controller net with
  | None -> Alcotest.fail "openflow mode has a baseline controller"
  | Some c ->
      Alcotest.(check bool) "controller sent Buffer_out releases" true
        ((Of_controller.stats c).Of_controller.buffer_outs_sent > 0));
  Alcotest.(check bool) "control bytes were accounted" true
    (Network.ctrl_bytes_sent net > 0)

(* Flows start between runs, as a sharded network requires. *)
let run_lazy ?shards ?controllers seed =
  let topo = build_topo seed in
  let net =
    Network.create
      ~params:(Params.with_seed seed Params.default)
      ?shards ?controllers ~mode:Network.Lazy ~topo
      ~horizon:(Time.of_min 10) ()
  in
  Network.bootstrap net ();
  let rng = Prng.create (seed * 37) in
  let hosts = Array.of_list (Topology.hosts topo) in
  for i = 1 to 30 do
    Network.run net ~until:(Time.add (Time.of_sec 10) (Time.of_sec i));
    let a = Prng.choose rng hosts and b = Prng.choose rng hosts in
    if not (Host.equal a b) then
      Network.start_flow net ~src:a.Host.id ~dst:b.Host.id ~bytes:3000
        ~packets:2
  done;
  Network.run net ~until:(Time.of_min 10);
  Network.shutdown net;
  net

(* On one shard, on four, and with three controllers: every send charges
   its own shard's recorder, so the per-shard totals sum to the channel
   counters of every controller's spokes. *)
let test_byte_crosscheck () =
  List.iter
    (fun (shards, controllers) ->
      let net = run_lazy ~shards ~controllers 23 in
      let sum f arr = Array.fold_left (fun acc x -> acc + f x) 0 arr in
      let sent = Network.ctrl_bytes_sent net in
      let msg what =
        Printf.sprintf "%s (%d shards, %d controllers)" what shards controllers
      in
      Alcotest.(check bool) (msg "control channels carried bytes") true (sent > 0);
      Alcotest.(check int) (msg "recorder totals equal the channel counters") sent
        (sum Recorder.total_ctrl_bytes (Network.recorders net));
      let totals = Network.link_stats net in
      Alcotest.(check bool)
        (msg "all-channel byte totals dominate the controller-facing subset")
        true
        (totals.Network.links_bytes_sent >= sent);
      let per_sec =
        Array.concat
          (Array.to_list (Array.map Recorder.ctrl_bytes_per_sec (Network.recorders net)))
      in
      Alcotest.(check bool) (msg "the bytes/sec series carries the total") true
        (Array.fold_left ( +. ) 0.0 per_sec > 0.0))
    [ (1, 1); (4, 1); (1, 3) ]

let test_byte_determinism () =
  let a = Network.ctrl_bytes_sent (run_lazy 29) in
  let b = Network.ctrl_bytes_sent (run_lazy 29) in
  Alcotest.(check bool) "same-seed runs moved bytes" true (a > 0);
  Alcotest.(check int) "same-seed runs move identical byte totals" a b

(* The cluster plane (two controllers splitting the groups) charges
   every controller's spokes to the same channel counters. *)
let test_cluster_bytes () =
  let topo = build_topo 5 in
  let net =
    Network.create ~controllers:2 ~mode:Network.Lazy ~topo
      ~horizon:(Time.of_min 10) ()
  in
  Network.bootstrap net ();
  Network.run net ~until:(Time.of_sec 60);
  Alcotest.(check int) "the plane has two controllers" 2
    (Network.controllers net);
  Alcotest.(check bool) "cluster control channels carried bytes" true
    (Network.ctrl_bytes_sent net > 0)

let () =
  Alcotest.run "wire"
    [
      ( "roundtrip",
        [
          test_unit_roundtrip;
          test_proto_roundtrip;
          test_proto_wire_size;
          Alcotest.test_case "every constructor round-trips" `Quick
            test_constructor_coverage;
          Alcotest.test_case "buffered Packet_in omits payload" `Quick
            test_buffered_packet_in_smaller;
        ] );
      ( "strictness",
        [
          Alcotest.test_case "truncated frames rejected" `Quick
            test_truncation_rejected;
          Alcotest.test_case "corrupt frames rejected" `Quick
            test_corruption_rejected;
        ] );
      ( "primitives",
        [
          Alcotest.test_case "writer/reader primitives" `Quick test_primitives;
          Alcotest.test_case "packet and message codecs" `Quick
            test_packet_and_message_codecs;
          Alcotest.test_case "buffer pool" `Quick test_buffer_pool;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "buffered punt path delivers" `Quick
            test_buffered_punt_e2e;
          Alcotest.test_case "byte-accounting cross-check" `Quick
            test_byte_crosscheck;
          Alcotest.test_case "byte totals are deterministic" `Quick
            test_byte_determinism;
          Alcotest.test_case "cluster plane accounts control bytes" `Quick
            test_cluster_bytes;
        ] );
    ]
