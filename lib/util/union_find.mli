(** Disjoint-set forest with union by rank and path compression. *)

type t

val create : int -> t
(** [create n] makes [n] singleton sets labelled [0..n-1]. *)

val union : t -> int -> int -> bool
(** Merge the two sets; returns [false] if already joined. *)

val same : t -> int -> int -> bool

val count : t -> int
(** Number of disjoint sets remaining. *)

val size : t -> int -> int
(** Number of elements in the set containing the given element. *)
