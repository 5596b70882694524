(** Prioritized flow table with timeouts and counters, modelling the
    TCAM/flow-table of an edge switch.

    Lookup returns the highest-priority matching entry (ties broken by
    later installation, like Open vSwitch). Entries expire by idle or hard
    timeout; expiry is checked lazily at lookup and eagerly via {!sweep}.
    A capacity bound models limited TCAM space: installing into a full
    table evicts the soonest-to-expire lowest-priority entry and counts an
    eviction. *)

open Lazyctrl_sim

type entry = {
  priority : int;
  ofmatch : Ofmatch.t;
  actions : Action.t list;
  idle_timeout : Time.t option;
  hard_timeout : Time.t option;
  cookie : int;
}

type stats = {
  lookups : int;
  hits : int;
  installs : int;
  evictions : int;
  expiries : int;
}

type t

val create : ?capacity:int -> unit -> t
(** Default capacity 65536 entries. *)

val install : t -> now:Time.t -> entry -> unit
(** Replaces an entry with the same match and priority. *)

val remove_matching : t -> Ofmatch.t -> int
(** Remove all entries whose match is subsumed by the argument (OpenFlow
    delete semantics); returns how many were removed. *)

val lookup : t -> now:Time.t -> Lazyctrl_net.Packet.eth -> Action.t list option
(** Highest-priority live match; bumps counters and the idle deadline. *)

val sweep : t -> now:Time.t -> int
(** Drop all expired entries; returns how many. *)

val size : t -> int
val stats : t -> stats

val packet_count : t -> cookie:int -> int
(** Total packets matched by entries carrying the cookie. *)
