(** Multilevel k-way graph partitioning (MLkP, after Karypis & Kumar) with
    hard per-part weight caps — the engine behind the paper's [IniGroup].

    The pipeline is the classic one: coarsen by heavy-edge matching until
    the graph is small, partition the coarsest graph by greedy region
    growing, then uncoarsen while refining with greedy boundary moves
    (a Kernighan–Lin / Fiduccia–Mattheyses-style gain pass) that respect
    the size constraint. *)

type assignment = int array
(** [a.(v)] is the part (in [0..k-1]) of vertex [v]. *)

val edge_cut : Wgraph.t -> assignment -> float
(** Total weight of edges whose endpoints lie in different parts — the
    paper's (unnormalized) inter-group traffic intensity [W_inter]. *)

val normalized_cut : Wgraph.t -> assignment -> float
(** [edge_cut / total_edge_weight], in [\[0,1\]]; 0 on an edgeless graph. *)

val validate :
  Wgraph.t -> k:int -> ?max_part_weight:int -> assignment -> (unit, string) result
(** Checks assignment length, part-index range and the weight cap. *)

val multilevel_kway :
  rng:Lazyctrl_util.Prng.t ->
  ?max_part_weight:int ->
  k:int ->
  Wgraph.t ->
  assignment
(** [multilevel_kway ~rng ~k g] partitions into at most [k] parts. When
    [max_part_weight] is given it is a hard cap, enforced by refinement and
    a final repair pass; it must satisfy [k * max_part_weight >= total
    vertex weight].
    @raise Invalid_argument if [k < 1] or the cap is infeasible. *)

val bisect :
  rng:Lazyctrl_util.Prng.t -> ?max_part_weight:int -> Wgraph.t -> assignment
(** Balanced min-cut bisection ([k = 2]) — the split step of the paper's
    [IncUpdate]. *)

val refine :
  Wgraph.t -> k:int -> ?max_part_weight:int -> ?passes:int -> assignment -> int
(** In-place greedy boundary refinement; returns the number of moves made.
    Exposed for incremental regrouping and tests. Default 8 passes. *)
