(** End-to-end chaos run: build a lazy-plane network with one controller
    or a cluster of them and lossy channels, apply seeded tenant flows
    and migrations across the fault window, inject a seeded fault
    scenario, then poll the convergence invariants until they all hold or
    a settle deadline passes.

    The whole run — placement, traffic, fault schedule, channel loss — is
    derived from [config.seed], so two runs with the same config produce
    byte-identical [fingerprint]s. *)

open Lazyctrl_sim
open Lazyctrl_openflow
open Lazyctrl_switch
open Lazyctrl_controller
open Lazyctrl_core

type config = {
  seed : int;
  controllers : int;      (** 1, or the size of a controller cluster *)
  n_switches : int;
  n_tenants : int;
  loss : float;           (** baseline per-message loss on every channel *)
  dup : float;
  reliable : bool;        (** false = the old fire-and-forget state path *)
  spec : Scenario.spec;
  migrations : int;
  flows_per_tenant : int;
  group_size_limit : int;
  warmup : Time.t;
  settle : Time.t;
      (** give-up deadline after the last repair or the end of the fault
          window, whichever is later *)
  poll : Time.t;          (** invariant re-check cadence while settling *)
}

val default_config : config
(** One controller, 12 switches, 6 tenants, 5% loss + 1% duplication,
    every single-controller fault kind, reliable delivery on. *)

val cluster_config : config
(** 3 controllers, 16 switches, 4 faults over 40 s drawn from
    {!Fault.cluster_kinds}, lossless baseline, groups of at most 4 so
    each member owns several. *)

type result = {
  events : Fault.event list;
  reports : Invariant.report list;   (** from the final check *)
  converged_after : Time.t option;
      (** time from the later of the last repair and the end of the
          fault window to all invariants holding; [None] = never *)
  link : Network.link_totals;
  ctrl_bytes : int;  (** {!Network.ctrl_bytes_sent} at the end of the run *)
  reliability : Reliable.stats;
  switch_stats : Edge_switch.stats;
  controller_stats : Controller.stats list;  (** one per controller *)
  member_stats : Lazyctrl_cluster.Member.stats;  (** zeros at one controller *)
  flows_started : int;
  flows_delivered : int;
  resolutions_failed : int;
  involvement : float;
      (** controller-involvement ratio: punted / datapath decisions *)
  fingerprint : string;
}

val delivery_ratio : Network.link_totals -> float

val run : ?tracer:Lazyctrl_trace.Tracer.t -> config -> result
(** [tracer] (default disabled) flight-records the run: it is threaded
    into the network planes and additionally receives a [Chaos_fault]
    event at each fault's onset and repair time. *)
