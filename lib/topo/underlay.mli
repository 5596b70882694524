(** The simulated network core.

    Per the paper's core–edge separation, the core is "any simple and
    scalable network" that gives one-hop logical connectivity between edge
    switches. We model it as a full mesh of IP paths with a uniform base
    latency, optional jitter, and per-path failure injection (for the
    detour-routing failover experiments). Encapsulated frames are routed
    by their outer destination IP. *)

open Lazyctrl_sim
open Lazyctrl_net

type t

val create :
  Engine.t -> latency:Time.t -> ?jitter:(unit -> Time.t) -> unit -> t
(** The engine is the senders' clock: a frame sent at its [now] arrives
    one latency later. *)

val register : t -> Ipv4.t -> post:Engine.post -> (Packet.t -> unit) -> unit
(** Attach an endpoint (an edge switch's tunnel interface).  Frames for
    it are delivered only through [post], which schedules on the
    endpoint's engine ([Engine.post engine] when senders and endpoint
    share one), and counted there. *)

val send : t -> Packet.t -> bool
(** Route an encapsulated frame to its outer destination. Returns [false]
    (and counts a drop) for plain frames, unknown endpoints, or failed
    paths. *)

val fail_path : t -> src:Ipv4.t -> dst:Ipv4.t -> unit
(** Break the directed path; packets sent on it are dropped until
    repaired. *)

val repair_path : t -> src:Ipv4.t -> dst:Ipv4.t -> unit
val path_up : t -> src:Ipv4.t -> dst:Ipv4.t -> bool

val delivered : t -> int
val dropped : t -> int
val bytes_carried : t -> int
