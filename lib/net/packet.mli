(** Frames exchanged in the data plane.

    Two levels exist, mirroring the paper's overlay design: a {e plain}
    Ethernet frame as emitted by a host, and an {e encapsulated} frame —
    a plain frame wrapped in a GRE-like outer IP header addressed to a
    remote edge switch's underlay endpoint.

    A header-only binary encoding of the Ethernet frame
    ({!write_eth_to}/{!read_eth_from}) is what the control-channel codec
    embeds in its messages. *)

type arp_op = Request | Reply

type arp = {
  op : arp_op;
  sender_mac : Mac.t;
  sender_ip : Ipv4.t;
  target_mac : Mac.t; (* all-zero in requests *)
  target_ip : Ipv4.t;
}

type ipv4_payload = {
  src_ip : Ipv4.t;
  dst_ip : Ipv4.t;
  protocol : int; (* 6 = TCP, 17 = UDP *)
  src_port : int;
  dst_port : int;
  length : int; (* payload bytes carried, for accounting *)
}

type payload = Arp of arp | Ipv4 of ipv4_payload

type eth = {
  src : Mac.t;
  dst : Mac.t;
  vlan : int option; (* 802.1Q tenant tag *)
  payload : payload;
}

type t =
  | Plain of eth
  | Encap of { outer_src : Ipv4.t; outer_dst : Ipv4.t; inner : eth }

val arp_request : sender:Host.t -> target_ip:Ipv4.t -> ?vlan:int -> unit -> t
(** Broadcast ARP who-has frame from a host. *)

val arp_reply : sender:Host.t -> requester:Host.t -> ?vlan:int -> unit -> t

val data : src:Host.t -> dst:Host.t -> ?vlan:int -> ?protocol:int ->
  ?src_port:int -> ?dst_port:int -> length:int -> unit -> t
(** Unicast IPv4 data frame between two hosts. *)

val encap : outer_src:Ipv4.t -> outer_dst:Ipv4.t -> eth -> t
(** Wrap a plain frame for underlay transport.
    @raise Invalid_argument when applied to an already encapsulated frame
    indirectly (callers pass the inner [eth] explicitly, so this cannot
    nest). *)

val eth_of : t -> eth
(** The innermost Ethernet frame of either form. *)

val is_broadcast : t -> bool
val size_on_wire : t -> int
(** Logical on-wire size in bytes: all headers plus the carried payload
    length. Used for bandwidth accounting. *)

val eth_encoded_size : eth -> int
(** Exact number of bytes {!write_eth_to} emits for this frame (headers
    plus the fixed ARP/IPv4 body; the IPv4 payload is represented by its
    length field). *)

val write_eth_to : bytes -> pos:int -> eth -> int
(** Write the header-only encoding of a bare Ethernet frame into a caller
    buffer at [pos]; returns the position one past the last byte written
    (always [pos + eth_encoded_size e]). Lets framing layers embed frames
    without an intermediate [Bytes.sub]. *)

val read_eth_from : bytes -> pos:int -> eth * int
(** Inverse of {!write_eth_to}: parse one bare Ethernet frame starting at
    [pos]; returns the frame and the position one past it.
    @raise Invalid_argument on truncated or malformed input. *)

val pp : Format.formatter -> t -> unit
