(** Binary OpenFlow wire codec (ROADMAP item 4).

    Turns ['ext Lazyctrl_openflow.Message.t] values into length-prefixed
    binary frames over [Bytes] and back, so control channels carry — and
    can account for — real bytes instead of OCaml values. The normative
    frame layouts (header, PacketIn with buffer_id, FlowMod), the
    switch-side buffering state machine and the byte-accounting points are
    specified in DESIGN.md §13 "Wire format"; this interface documents the
    API contract only.

    Frame shape (big-endian throughout, like {!Lazyctrl_net.Packet}):

    {v
    frame   := length(u32, whole frame) version(u8 = 1) flags(u8 = 0)
               reserved(u16 = 0) message
    message := type(u8) body
    v}

    [message] is self-describing, so nested messages (the [Proto.Relay] /
    [Proto.Seq] envelopes) embed with {!write_message}/{!read_message}
    and no inner framing.

    Encoding is exact-size: {!encode} computes {!frame_size} first and
    writes into a single allocation of exactly that many bytes. Decoding
    is strict: a frame whose length prefix disagrees with the buffer, a
    bad version, an unknown type tag, or trailing bytes all raise
    [Invalid_argument] — corrupt frames never decode to a value.

    Packets embed header-only (an IPv4 payload is its length field, as in
    {!Lazyctrl_net.Packet.write_eth_to}) and the synthetic payload is then
    materialized as zero padding wherever a message carries the {e whole}
    packet, so [Bytes.length (encode m)] is the honest on-wire cost of
    [m]. A buffered [Packet_in] ([buffer_id <> Message.no_buffer]) omits
    the padding — only the headers cross the control channel, which is
    the point of switch-side buffering. *)

open Lazyctrl_net
open Lazyctrl_openflow

(** Positional big-endian writer over a caller-provided buffer. Writes
    past the end raise [Invalid_argument] (the byte primitives
    bound-check), so a mis-sized buffer cannot be silently overrun. *)
module W : sig
  type t = { buf : bytes; mutable pos : int }

  val create : int -> t
  (** A fresh zero-filled buffer of the given size, positioned at 0. *)

  val u8 : t -> int -> unit
  val u16 : t -> int -> unit
  (** @raise Invalid_argument outside [\[0, 0xffff\]] — encoding never
      truncates a field silently. *)

  val u32 : t -> int -> unit
  (** @raise Invalid_argument outside [\[0, 0xffffffff\]]. *)

  val i64 : t -> int -> unit
  (** Any OCaml [int], sign-extended to 8 bytes; the lossless encoding
      for open-ended fields (cookies, sequence numbers, timeouts). *)

  val mac : t -> Mac.t -> unit  (** 6 bytes. *)

  val ip : t -> Ipv4.t -> unit  (** 4 bytes. *)

  val pad : t -> int -> unit
  (** Advance over [n] zero bytes (the buffer starts zero-filled). *)
end

(** Positional reader, the inverse of {!W}. Reads past the end raise
    [Invalid_argument]. *)
module R : sig
  type t = { buf : bytes; mutable pos : int }

  val of_bytes : bytes -> t
  val u8 : t -> int
  val u16 : t -> int
  val u32 : t -> int
  val i64 : t -> int
  val mac : t -> Mac.t
  val ip : t -> Ipv4.t

  val skip : t -> int -> unit
  (** Advance over [n] bytes without reading them (payload padding). *)
end

type 'ext ext = {
  ext_size : 'ext -> int;  (** exact bytes [ext_write] will emit *)
  ext_write : W.t -> 'ext -> unit;
  ext_read : R.t -> 'ext;
}
(** Codec for the ['ext] extension payload of
    {!Lazyctrl_openflow.Message.Extension}. [ext_size] must agree exactly
    with [ext_write] — {!encode} sizes its single allocation from it. *)

val unit_ext : unit ext
(** The baseline (extension-free) plane's codec: zero bytes. *)

val header_size : int
(** Fixed frame-header size: 8 bytes. *)

val packet_size : full:bool -> Packet.t -> int
(** Bytes {!write_packet} emits: form tag + outer header (encap only) +
    header-only eth encoding, plus the zero-padded payload when [full]. *)

val write_packet : W.t -> full:bool -> Packet.t -> unit

val read_packet : R.t -> Packet.t
(** Inverse of [write_packet ~full:false]: headers only, no padding
    consumed. *)

val read_full_packet : R.t -> Packet.t
(** Inverse of [write_packet ~full:true]: also consumes the zero-padded
    payload body. *)

val message_size : 'ext ext -> 'ext Message.t -> int
(** Exact size of the self-describing [message] production (type tag +
    body), i.e. what {!write_message} emits — the unit nested envelopes
    account in. *)

val write_message : 'ext ext -> W.t -> 'ext Message.t -> unit
val read_message : 'ext ext -> R.t -> 'ext Message.t

val frame_size : 'ext ext -> 'ext Message.t -> int
(** [header_size + message_size], the exact length of {!encode}'s
    result — the quantity the per-channel byte counters sum. *)

val encode : 'ext ext -> 'ext Message.t -> bytes
(** Single exact-size allocation; [Bytes.length (encode ext m)
    = frame_size ext m] always.
    @raise Invalid_argument when a bounded field is out of range (e.g. a
    flow-mod priority beyond 16 bits) — never silently truncates. *)

val decode : 'ext ext -> bytes -> 'ext Message.t
(** Inverse of {!encode}: [decode ext (encode ext m)] is structurally
    equal to [m] for every constructor (the round-trip property test in
    [test/test_wire.ml]).
    @raise Invalid_argument on truncation, a length prefix that
    disagrees with the buffer, a bad version, an unknown tag, or
    trailing bytes. *)
