(** Graph coarsening by heavy-edge matching (the first phase of the
    multilevel partitioner).

    Vertices are visited in random order; each unmatched vertex is matched
    with the unmatched neighbour joined by the heaviest edge. Matched pairs
    collapse into one coarse vertex whose weight is the sum of the pair's
    weights; edge weights between coarse vertices accumulate. *)

val heavy_edge_matching : rng:Lazyctrl_util.Prng.t -> Wgraph.t -> int array
(** [heavy_edge_matching ~rng g] returns [cmap] with [cmap.(v)] the coarse
    vertex id of [v]; coarse ids are dense in [0..n'-1]. Unmatched vertices
    map to singleton coarse vertices. *)

val coarsen : rng:Lazyctrl_util.Prng.t -> Wgraph.t -> Wgraph.t * int array
(** [heavy_edge_matching] followed by contraction: the coarse graph
    induced by the mapping, without the self-loops contraction produces
    (they do not contribute to any cut). *)
