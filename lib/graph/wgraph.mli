(** Weighted undirected graphs in CSR (compressed sparse row) form.

    Vertices are [0..n-1]. Each vertex carries an integer weight (the
    number of original vertices it represents after coarsening; 1 in an
    input graph). Edges carry float weights (traffic intensity between two
    edge switches). Parallel edges added to the builder are merged by
    summing their weights; self-loops are dropped. *)

type t

module Builder : sig
  type graph = t

  type t

  val create : n:int -> t

  val add_edge : t -> int -> int -> float -> unit
  (** Undirected; repeated pairs accumulate. Self-loops are ignored.
      Negative weights are rejected.
      @raise Invalid_argument on out-of-range vertices or negative
      weight. *)

  val set_vertex_weight : t -> int -> int -> unit
  (** Default vertex weight is 1. *)

  val build : t -> graph
end

val n_vertices : t -> int
val n_edges : t -> int
(** Undirected edge count (each pair counted once). *)

val vertex_weight : t -> int -> int
val total_vertex_weight : t -> int

val total_edge_weight : t -> float
(** Sum over undirected edges. *)

val iter_neighbors : t -> int -> (int -> float -> unit) -> unit
(** [iter_neighbors g u f] calls [f v w] for every edge [u–v] of weight
    [w]. *)

val iter_edges : t -> (int -> int -> float -> unit) -> unit
(** Each undirected edge visited once with [u < v]. *)

val induced : t -> int array -> t * int array
(** [induced g vs] is the subgraph on the vertices [vs] (in the given
    order: new vertex [i] is [vs.(i)]) together with the mapping back to
    the original ids, i.e. the second component is [vs] itself. Vertex
    weights are preserved. *)

val of_edges : n:int -> (int * int * float) list -> t
(** Convenience builder. *)
