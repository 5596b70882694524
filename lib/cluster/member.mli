(** One controller-cluster member: a {!Lazyctrl_controller.Controller}
    instance plus the coordination logic that decides which LCGs it
    masters.

    Liveness is hello-based: every member beacons {!Coord.Hello} to every
    peer each [hello_period]; a peer silent for [hello_timeout] is
    presumed dead. Before adopting a dead peer's groups, the successor
    probes the orphaned switches over its own (slave) spoke — a switch
    answering the second spoke while its master is silent is the extended
    Table-I {!Lazyctrl_controller.Failover.Controller_failure} pattern:
    re-home, don't reboot. Successor choice is deterministic (lowest
    load, then lowest index, computed identically by every member from
    the shared ownership view), and the orphan sweep re-runs every hello
    tick while the owner stays dead, so lost claims are always retried.

    Mastership claims are made through the management plane
    ([send_rehome]), which returns the switch's current term: a claim
    with a stale term is rejected and the caller learns the winning term
    — and, because claimants always pick terms congruent to their own
    index mod the cluster size, the winning term also identifies the
    winning member. Load balance (EASM) runs on a slower timer: a member
    whose owned-group count exceeds the least-loaded alive peer's by
    [migrate_gap] offers its highest-numbered group via a reliable
    {!Coord.Handoff}; the offerer keeps mastering the group until the
    adopter's {!Coord.Claimed} arrives, so no window exists with zero
    masters. *)

open Lazyctrl_net
open Lazyctrl_sim
open Lazyctrl_openflow
open Lazyctrl_controller

type config = {
  hello_period : Time.t;
  hello_timeout : Time.t;  (** silence longer than this marks a peer dead *)
  probe_window : Time.t;   (** second-spoke probe round before adoption *)
  migrate_period : Time.t; (** EASM evaluation cadence *)
  migrate_gap : int;       (** min owned-group imbalance to hand off *)
  migrate_cooldown : Time.t;
  retrans : Reliable.config;  (** for the per-peer coordination sessions *)
}

val default_config : config

type env = {
  engine : Engine.t;
  self : int;
  n_members : int;
  controller : Controller.t;
  send_coord : int -> Coord.t -> bool;
      (** coordination mesh; [false] = link or peer down *)
  send_rehome : Ids.Switch_id.t -> term:int -> int;
      (** management-plane mastership claim; returns the switch's current
          term after the claim (> the argument means the claim lost) *)
  probe_switch : Ids.Switch_id.t -> unit;
      (** OAM echo to a switch over this member's slave spoke *)
}

type stats = {
  hellos_sent : int;
  rehomes_sent : int;       (** claims + idempotent re-announcements *)
  adoptions : int;          (** groups adopted (failover + handoffs) *)
  releases : int;           (** groups ceded to a higher-term claim *)
  handoffs_offered : int;   (** EASM migration offers sent *)
  peer_deaths : int;
  peer_revivals : int;
  controller_failure_verdicts : int;
      (** probed switches whose evidence inferred as Controller_failure *)
}

val stats_zero : stats
val stats_add : stats -> stats -> stats

type t

val create : env -> config -> t

val start : t -> initial:Coord.view_entry list -> unit
(** Seed the ownership view with the cluster-wide initial assignment
    (identical at every member), claim and bootstrap this member's own
    slice at its controller, and arm the hello and migration timers. *)

val stop : t -> unit
(** Kill this member: cancel timers, release owned groups at the
    controller (survivors will claim them), shut the controller's own
    timers down and go silent. Idempotent. *)

val restart : t -> unit
(** Revive after {!stop}: rejoin the mesh owning nothing, with fresh
    outgoing session epochs; peers detecting the revival resync their
    ownership views and C-LIB rows, and EASM refills this member over
    time. Idempotent. *)

val is_running : t -> bool

val handle : t -> from:int -> Coord.t -> unit
(** Entry point for coordination-mesh arrivals (except {!Coord.Fwd},
    which the plane routes itself). Any arrival refreshes the sender's
    liveness; a dead → alive transition triggers the full resync. *)

val note_probe_reply : t -> Ids.Switch_id.t -> unit
(** An OAM echo reply arrived from a probed switch. *)

val view : t -> Coord.view_entry list
(** The ownership view, ascending by group id. *)

val owned : t -> (Ids.Group_id.t * Ids.Switch_id.t list) list
(** Groups this member currently masters, ascending by group id. *)

val stats : t -> stats

val reliable_stats : t -> Reliable.stats
(** Aggregate over the per-peer coordination sessions. *)
