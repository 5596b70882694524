(** Switch groupings (the sets of Local Control Groups).

    A grouping is an immutable partition of the edge switches [0..n-1]
    into disjoint groups with dense {!Lazyctrl_net.Ids.Group_id} labels.
    Quality is judged exactly as in §III-C: the (normalized) inter-group
    traffic intensity [W_inter] under a switch-level intensity graph. *)

open Lazyctrl_net
open Lazyctrl_graph

type t

val of_assignment : int array -> t
(** [of_assignment a] with [a.(sw) = raw group label]; labels are
    renumbered densely in order of first appearance.
    @raise Invalid_argument on an empty array or negative label. *)

val singleton_groups : n_switches:int -> t
(** Each switch in its own group (the degenerate, fully-lazy-free case). *)

val one_group : n_switches:int -> t

val n_switches : t -> int
val n_groups : t -> int
val group_of : t -> Ids.Switch_id.t -> Ids.Group_id.t
val members : t -> Ids.Group_id.t -> Ids.Switch_id.t list
(** Ascending switch order. *)

val sizes : t -> int array
val max_group_size : t -> int
val assignment : t -> int array
(** A copy of the dense assignment. *)

val same_group : t -> Ids.Switch_id.t -> Ids.Switch_id.t -> bool

val inter_group_intensity : Wgraph.t -> t -> float
(** [W_inter]: total intensity between switches in different groups.
    @raise Invalid_argument if the graph size differs. *)

val normalized_inter : Wgraph.t -> t -> float
(** [W_inter] over total intensity, in [\[0,1\]] (0 on an edgeless graph). *)

val group_pair_intensity : Wgraph.t -> t -> (int * int * float) list
(** Intensity between each pair of groups with non-zero exchange,
    descending by weight. *)
