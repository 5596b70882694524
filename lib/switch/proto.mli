(** LazyCtrl's OpenFlow protocol extensions.

    These are the payloads carried in {!Lazyctrl_openflow.Message.Extension}
    over the three channel kinds of §III-B3: control links (controller ↔
    switch), state links (controller ↔ designated switch) and peer links
    (switch ↔ switch within a group). *)

open Lazyctrl_net
open Lazyctrl_sim

type host_key = { mac : Mac.t; ip : Ipv4.t; tenant : Ids.Tenant_id.t }
(** The identity tuple tracked by L-FIBs and disseminated between
    switches. *)

val host_key_compare : host_key -> host_key -> int
val host_key_equal : host_key -> host_key -> bool
(** Keyed comparisons (mac, then ip, then tenant) — prefer these to
    polymorphic [=] on host keys. *)

val mac_key : Mac.t -> int
(** Bloom-filter key for a MAC (tagged apart from the IP key space). *)

val ip_key : Ipv4.t -> int

type group_config = {
  group : Ids.Group_id.t;
  members : Ids.Switch_id.t list;
      (** ordered by management MAC — ascending switch id here — which
          defines the failure-detection wheel *)
  designated : Ids.Switch_id.t;
  backups : Ids.Switch_id.t list;
  sync_period : Time.t;      (** designated → controller state reports *)
  keepalive_period : Time.t; (** wheel keep-alives *)
}

type lfib_delta = {
  origin : Ids.Switch_id.t;
  added : host_key list;
  removed : host_key list;
  full : bool;
      (* when true, [added] is the origin's complete table and receivers
         rebuild their filter (the controller its C-LIB row) instead of
         applying a delta; a table equal to what the receiver already
         holds from the origin leaves it untouched (Gfib.set_peer,
         Clib.apply_delta) *)
}

type t =
  | Group_config of group_config
      (** controller → every member (control link) *)
  | Group_sync of { lfibs : (Ids.Switch_id.t * host_key list) list }
      (** controller → designated after regrouping: the C-LIB rows of the
          new group, to be re-broadcast so members rebuild their G-FIBs
          (§III-D3 asynchronous dissemination, case ii) *)
  | Lfib_advert of lfib_delta
      (** member → designated on L-FIB change, then designated → peers *)
  | Member_report of {
      origin : Ids.Switch_id.t;
      intensity : (Ids.Switch_id.t * int) list;
          (** new-flow counts to remote switches since the last report —
              the statistics that feed SGI *)
    }
      (** member → designated, periodic *)
  | State_report of {
      group : Ids.Group_id.t;
      deltas : lfib_delta list;
      intensity : (Ids.Switch_id.t * Ids.Switch_id.t * int) list;
    }
      (** designated → controller (state link), periodic *)
  | Group_arp of { origin : Ids.Switch_id.t; packet : Packet.t }
      (** switch → designated: broadcast this ARP inside the group *)
  | Arp_broadcast of { packet : Packet.t }
      (** designated → members; also controller → designated when relaying
          an ARP across groups *)
  | Arp_escalate of { origin : Ids.Switch_id.t; packet : Packet.t }
      (** designated → controller: target unknown to the whole group *)
  | False_positive of { at : Ids.Switch_id.t; dst : Mac.t }
      (** optional report of a Bloom-filter misdelivery (§III-D4) *)
  | Keepalive of { from : Ids.Switch_id.t }
      (** ring-neighbour keep-alive (peer link, both directions) *)
  | Ring_alarm of {
      observer : Ids.Switch_id.t;
      missing : Ids.Switch_id.t;
      direction : [ `Up | `Down ];
          (** [`Up]: the lost keep-alive travelled upstream (from [missing]
              to its ring predecessor [observer]); [`Down]: downstream *)
    }
      (** switch → controller: a wheel keep-alive went missing *)
  | Rehome of { term : int; master : int }
      (** controller-cluster member → switch: claim mastership.  [term]
          totally orders claims — a switch accepts a strictly greater term
          only, so a stale master's retransmitted claim can never yank it
          back — and [master] names the claiming member instance.  On
          acceptance the switch resets its control session, announces
          itself to the new master (Hello → config re-push), heals the
          master's C-LIB row with a full advert and drains buffered
          misses, so the handoff loses no packets. *)
  | Relay of { origin : Ids.Switch_id.t; boxed : t Lazyctrl_openflow.Message.t }
      (** a whole control-link message forwarded through a ring neighbour
          during control-link failover (§III-E2) *)
  | Seq of { epoch : int; seq : int; payload : t Lazyctrl_openflow.Message.t }
      (** a reliable-delivery envelope: [payload] numbered within the
          sender's [epoch] (bumped across reboots) by
          {!Lazyctrl_openflow.Reliable}; receivers dedup and reorder *)
  | Ack of { epoch : int; cum : int }
      (** cumulative ack for a reliable stream: every seq [<= cum] of
          [epoch] arrived ([cum = -1] when none have) *)

val size_estimate : t -> int
(** Approximate wire size for channel accounting; the byte-exact size is
    {!wire_size}. *)

val wire_size : t -> int
(** Exact bytes {!to_wire} emits (the extension half of DESIGN.md §13). *)

val to_wire : Lazyctrl_wire.Wire.W.t -> t -> unit
val of_wire : Lazyctrl_wire.Wire.R.t -> t

val wire_ext : t Lazyctrl_wire.Wire.ext
(** The bundled codec, ready for [Wire.encode]/[Wire.decode] and
    [Channel.set_codec] on control, state and peer links. *)

val pp : Format.formatter -> t -> unit

module Ring : sig
  (** The failure-detection wheel: members ordered by management MAC form
      a ring; the controller is a spoke to every member. *)

  val neighbors :
    members:Ids.Switch_id.t list -> Ids.Switch_id.t ->
    (Ids.Switch_id.t * Ids.Switch_id.t) option
  (** [neighbors ~members sw] is [(upstream, downstream)] of [sw] on the
      ring, or [None] when [sw] is not a member or the group has fewer
      than 2 members. Members are sorted internally. *)
end
