(** SGI — the paper's Size-constrained Grouping algorithm with
    Incremental update support (Fig. 3).

    [ini_group] is the initial stage: build the intensity graph and run a
    size-constrained multilevel k-way partition, with [k] estimated as the
    switch count over the group size limit.

    [inc_update] is one iteration of the background refinement: pick the
    two groups exchanging the most traffic (optionally, whose exchange
    *grew* the most against a previous intensity graph), merge them, and
    re-split the merged subgraph with {!Partition.bisect}, the
    size-constrained multilevel min-cut bisection. *)

open Lazyctrl_graph
module Prng = Lazyctrl_util.Prng

val estimate_k : n_switches:int -> limit:int -> int
(** [ceil (n / limit)], at least 1. *)

val ini_group : rng:Prng.t -> limit:int -> ?k:int -> Wgraph.t -> Grouping.t
(** @raise Invalid_argument if [limit < 1] or an explicit [k] makes the
    cap infeasible. *)

val find_candidate_pair :
  ?previous:Wgraph.t -> Wgraph.t -> Grouping.t -> (int * int) option
(** The two groups to merge: highest current inter-group intensity, or —
    when [previous] is supplied — highest intensity increase since then.
    [None] when no two groups exchange traffic. *)

val inc_update :
  rng:Prng.t ->
  limit:int ->
  ?previous:Wgraph.t ->
  intensity:Wgraph.t ->
  Grouping.t ->
  Grouping.t option
(** One merge-and-split step; [None] when no candidate pair exists or the
    split does not improve [W_inter]. The result never violates the size
    limit. *)

val inc_update_batch :
  rng:Prng.t ->
  limit:int ->
  ?domains:int ->
  intensity:Wgraph.t ->
  Grouping.t ->
  Grouping.t option
(** Appendix B "acceleration by parallelism": pick the top disjoint group
    pairs by exchanged traffic and run the merge-and-split of each pair
    concurrently ([domains] > 1 uses that many OCaml domains; default 1 is
    sequential but still batched). Each pair's subproblem is independent,
    so the result is deterministic for a given seed regardless of
    [domains]. [None] when no pair's re-split improves the cut. *)
