(** Trace analysis: the statistics of §II and Table II, and the
    switch-level intensity matrices that drive grouping.

    Traffic intensity between two edge switches is the paper's [w_ij]:
    normalized new-flow rate (flows per second) between the hosts behind
    switch [i] and those behind switch [j]. *)

open Lazyctrl_sim
open Lazyctrl_graph
open Lazyctrl_topo
module Prng = Lazyctrl_util.Prng

val switch_intensity :
  ?from:Time.t -> ?until:Time.t -> ?exclude_hosts:Lazyctrl_net.Ids.Host_id.Set.t ->
  topo:Topology.t -> Trace.t -> Wgraph.t
(** Vertices are switch ids; edge weight is flows/sec between the two
    switches' host populations in the window (default: whole trace).
    Intra-switch flows contribute nothing, as in the paper. Flows touching
    [exclude_hosts] are left out of the matrix — Appendix B's host
    exclusion: those hosts' control tasks go to the controller, and their
    scattered traffic stops distorting the grouping. *)

val high_fanout_hosts :
  Trace.t -> fraction:float -> Lazyctrl_net.Ids.Host_id.Set.t
(** The [fraction] of hosts with the most distinct communication peers —
    the natural candidates for Appendix B's host exclusion. *)

val skew : Trace.t -> top_fraction:float -> float
(** Fraction of all flows carried by the busiest [top_fraction] of
    communicating pairs (the paper: top 10% carry ~90%). *)

val centrality_per_group :
  Trace.t -> assignment:(int -> int) -> k:int -> float array
(** Paper §II definition: for each group, intra-group flow volume over the
    total flow volume touching the group's hosts. An inter-group flow is
    one unit of traffic shared between the two groups it touches (half
    against each), so the system-wide accounting does not double-count
    it. [nan] for groups whose hosts see no traffic. *)

val avg_centrality : rng:Prng.t -> k:int -> Trace.t -> float
(** Table II's "avg. centrality": partition the hosts into [k] groups with
    the multilevel partitioner (even sizes) and average the group
    centralities, ignoring empty groups. *)

val flows_per_second_peak : Trace.t -> bucket:Time.t -> float
(** Max flow-arrival rate over fixed buckets — a controller-sizing
    statistic. *)
