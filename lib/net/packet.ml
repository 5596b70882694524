type arp_op = Request | Reply

type arp = {
  op : arp_op;
  sender_mac : Mac.t;
  sender_ip : Ipv4.t;
  target_mac : Mac.t;
  target_ip : Ipv4.t;
}

type ipv4_payload = {
  src_ip : Ipv4.t;
  dst_ip : Ipv4.t;
  protocol : int;
  src_port : int;
  dst_port : int;
  length : int;
}

type payload = Arp of arp | Ipv4 of ipv4_payload

type eth = { src : Mac.t; dst : Mac.t; vlan : int option; payload : payload }

type t =
  | Plain of eth
  | Encap of { outer_src : Ipv4.t; outer_dst : Ipv4.t; inner : eth }

let zero_mac = Mac.of_int 0

let arp_request ~(sender : Host.t) ~target_ip ?vlan () =
  Plain
    {
      src = sender.mac;
      dst = Mac.broadcast;
      vlan;
      payload =
        Arp
          {
            op = Request;
            sender_mac = sender.mac;
            sender_ip = sender.ip;
            target_mac = zero_mac;
            target_ip;
          };
    }

let arp_reply ~(sender : Host.t) ~(requester : Host.t) ?vlan () =
  Plain
    {
      src = sender.mac;
      dst = requester.mac;
      vlan;
      payload =
        Arp
          {
            op = Reply;
            sender_mac = sender.mac;
            sender_ip = sender.ip;
            target_mac = requester.mac;
            target_ip = requester.ip;
          };
    }

let data ~(src : Host.t) ~(dst : Host.t) ?vlan ?(protocol = 6) ?(src_port = 0)
    ?(dst_port = 0) ~length () =
  if length < 0 then invalid_arg "Packet.data: negative length";
  Plain
    {
      src = src.mac;
      dst = dst.mac;
      vlan;
      payload =
        Ipv4
          {
            src_ip = src.ip;
            dst_ip = dst.ip;
            protocol;
            src_port;
            dst_port;
            length;
          };
    }

let encap ~outer_src ~outer_dst inner = Encap { outer_src; outer_dst; inner }

let eth_of = function Plain e -> e | Encap { inner; _ } -> inner

let is_broadcast t = Mac.is_broadcast (eth_of t).dst

(* Wire format (little invented, big-endian fields):
   eth   := dst(6) src(6) [0x8100 vlan(2)] ethertype(2) body
   arp   := op(1) smac(6) sip(4) tmac(6) tip(4)
   ipv4  := sip(4) dip(4) proto(1) sport(2) dport(2) len(4)
   The encapsulation header around an eth is Wire's (write_packet). *)

let eth_header_size e = 12 + (match e.vlan with Some _ -> 4 | None -> 0) + 2

let body_size = function Arp _ -> 21 | Ipv4 p -> 17 + p.length

let size_on_wire = function
  | Plain e -> eth_header_size e + body_size e.payload
  | Encap { inner; _ } -> 10 + eth_header_size inner + body_size inner.payload

module Writer = struct
  type w = { buf : bytes; mutable pos : int }

  let u8 w v =
    Bytes.set_uint8 w.buf w.pos v;
    w.pos <- w.pos + 1

  let u16 w v =
    Bytes.set_uint16_be w.buf w.pos v;
    w.pos <- w.pos + 2

  let u32 w v =
    Bytes.set_int32_be w.buf w.pos (Int32.of_int (v land 0xFFFFFFFF));
    w.pos <- w.pos + 4

  let mac w m =
    let v = Mac.to_int m in
    u16 w ((v lsr 32) land 0xffff);
    u32 w (v land 0xFFFFFFFF)

  let ip w v = u32 w (Ipv4.to_int v)
end

module Reader = struct
  type r = { buf : bytes; mutable pos : int }

  let need r n =
    if r.pos + n > Bytes.length r.buf then
      invalid_arg "Packet.read_eth_from: truncated"

  let u8 r =
    need r 1;
    let v = Bytes.get_uint8 r.buf r.pos in
    r.pos <- r.pos + 1;
    v

  let u16 r =
    need r 2;
    let v = Bytes.get_uint16_be r.buf r.pos in
    r.pos <- r.pos + 2;
    v

  let u32 r =
    need r 4;
    let v = Int32.to_int (Bytes.get_int32_be r.buf r.pos) land 0xFFFFFFFF in
    r.pos <- r.pos + 4;
    v

  let mac r =
    let hi = u16 r in
    let lo = u32 r in
    Mac.of_int ((hi lsl 32) lor lo)

  let ip r = Ipv4.of_int (u32 r)
end

let ethertype_arp = 0x0806
let ethertype_ipv4 = 0x0800

let write_eth w e =
  let open Writer in
  mac w e.dst;
  mac w e.src;
  (match e.vlan with
  | Some tag ->
      u16 w 0x8100;
      u16 w (tag land 0xfff)
  | None -> ());
  match e.payload with
  | Arp a ->
      u16 w ethertype_arp;
      u8 w (match a.op with Request -> 1 | Reply -> 2);
      mac w a.sender_mac;
      ip w a.sender_ip;
      mac w a.target_mac;
      ip w a.target_ip
  | Ipv4 p ->
      u16 w ethertype_ipv4;
      ip w p.src_ip;
      ip w p.dst_ip;
      u8 w p.protocol;
      u16 w p.src_port;
      u16 w p.dst_port;
      u32 w p.length

let read_eth r =
  let open Reader in
  let dst = mac r in
  let src = mac r in
  let tag_or_type = u16 r in
  let vlan, ethertype =
    if tag_or_type = 0x8100 then
      let tag = u16 r in
      (Some tag, u16 r)
    else (None, tag_or_type)
  in
  let payload =
    if ethertype = ethertype_arp then begin
      let op =
        match u8 r with
        | 1 -> Request
        | 2 -> Reply
        | _ -> invalid_arg "Packet.read_eth_from: bad ARP op"
      in
      let sender_mac = mac r in
      let sender_ip = ip r in
      let target_mac = mac r in
      let target_ip = ip r in
      Arp { op; sender_mac; sender_ip; target_mac; target_ip }
    end
    else if ethertype = ethertype_ipv4 then begin
      let src_ip = ip r in
      let dst_ip = ip r in
      let protocol = u8 r in
      let src_port = u16 r in
      let dst_port = u16 r in
      let length = u32 r in
      Ipv4 { src_ip; dst_ip; protocol; src_port; dst_port; length }
    end
    else invalid_arg "Packet.read_eth_from: unknown ethertype"
  in
  { dst; src; vlan; payload }

let eth_encoded_size e =
  eth_header_size e + (match e.payload with Arp _ -> 21 | Ipv4 _ -> 17)

let write_eth_to buf ~pos e =
  let w = { Writer.buf; pos } in
  write_eth w e;
  w.Writer.pos

let read_eth_from buf ~pos =
  let r = { Reader.buf; pos } in
  let e = read_eth r in
  (e, r.Reader.pos)

let pp_payload fmt = function
  | Arp a ->
      Format.fprintf fmt "ARP %s %a->%a"
        (match a.op with Request -> "who-has" | Reply -> "is-at")
        Ipv4.pp a.sender_ip Ipv4.pp a.target_ip
  | Ipv4 p ->
      Format.fprintf fmt "IPv4 %a:%d->%a:%d proto=%d len=%d" Ipv4.pp p.src_ip
        p.src_port Ipv4.pp p.dst_ip p.dst_port p.protocol p.length

let pp fmt = function
  | Plain e ->
      Format.fprintf fmt "[%a->%a%s %a]" Mac.pp e.src Mac.pp e.dst
        (match e.vlan with Some v -> Printf.sprintf " vlan=%d" v | None -> "")
        pp_payload e.payload
  | Encap { outer_src; outer_dst; inner } ->
      Format.fprintf fmt "[encap %a=>%a %a->%a %a]" Ipv4.pp outer_src Ipv4.pp
        outer_dst Mac.pp inner.src Mac.pp inner.dst pp_payload inner.payload
