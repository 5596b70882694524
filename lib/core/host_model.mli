(** End-host (VM) behaviour.

    Hosts resolve destinations with ARP before sending (live state
    dissemination, §III-D3 case i), keep an ARP cache with a TTL, queue
    flows behind an outstanding resolution, and answer ARP requests for
    their own address after a small stack delay. Each flow sends one
    simulated first packet carrying a unique flow id in its port fields;
    the remaining packets of the flow are accounted analytically by the
    caller when classification reports the delivery. *)

open Lazyctrl_net
open Lazyctrl_sim

type t

type flow_meta = {
  id : int;
  src : Ids.Host_id.t;
  dst : Ids.Host_id.t;
  bytes : int;
  packets : int;
  started : Time.t; (** when the application initiated the flow *)
}

type delivery =
  | Data_first of flow_meta  (** first delivery of a flow's first packet *)
  | Data_remote of int
      (** first delivery of a flow whose metadata lives in another
          shard's model (its id is outside this model's id space); the
          caller posts a {!complete_remote} receipt to the owner *)
  | Data_duplicate           (** Bloom-multicast duplicate or flooded copy *)
  | Arp_handled              (** request answered or reply consumed *)
  | Not_for_host             (** flooded frame for someone else; ignored *)

val create :
  ?flow_id_base:int ->
  ?flow_id_stride:int ->
  Engine.t ->
  send:(Host.t -> Packet.t -> unit) ->
  arp_ttl:Time.t ->
  stack_delay:Time.t ->
  t
(** [send] injects a frame at the host's edge switch (the caller adds the
    host-port latency).  [flow_id_base]/[flow_id_stride] (default 0/1)
    carve disjoint flow-id spaces for the per-shard models of a sharded
    {!Network}: model [b] of stride [s] allocates ids [b, b+s, …], so
    [id mod s] names the owning model.
    @raise Invalid_argument unless [0 <= flow_id_base < flow_id_stride]. *)

val start_flow : t -> src:Host.t -> dst:Host.t -> bytes:int -> packets:int -> unit
(** Initiate a flow; sends the data packet directly on a warm ARP cache,
    otherwise queues it behind an ARP exchange. Unanswered requests are
    retransmitted with linear backoff (up to 4 retries) before the queued
    flows are abandoned. *)

val deliver : t -> to_:Host.t -> Packet.t -> delivery
(** Process a frame arriving at a host. ARP requests for the host trigger
    a reply after the stack delay; ARP replies resolve the cache and
    release queued flows. A frame for another host changes nothing and
    reads [Not_for_host]: an ARP request is for the host with its target
    IP, an IPv4 frame for the host with its destination MAC, and an ARP
    reply for every host, since each caches the sender. *)

val deliver_hosts :
  t -> Host.t list -> Packet.t -> (Host.t -> delivery -> unit) -> unit
(** [deliver_hosts t hosts packet f] is one frame arriving at several
    hosts at once (a flood's host ports): the same state changes, in the
    same order, as [deliver] to each host in list order. The packet is
    unwrapped once, and [f h d] is called, in list order, for each host
    [h] the frame is for, with what [deliver] returns there; a host it is
    not for costs one address test. *)

val complete_remote : t -> int -> flow_meta option
(** Owner-side receipt for a flow first-delivered in another shard:
    retires the in-flight entry and counts the delivery.  [None] when the
    id is unknown or already completed (e.g. a duplicate receipt). *)

val flows_started : t -> int
val flows_delivered : t -> int
val arp_requests_sent : t -> int
val resolutions_failed : t -> int
(** Resolutions abandoned after the retry budget. *)

val pending_resolutions : t -> int
