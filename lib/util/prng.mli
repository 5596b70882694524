(** Deterministic splittable pseudo-random number generator.

    All randomness in the library flows through this module so that every
    simulation and experiment is reproducible from a single integer seed.
    The generator is SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): a tiny,
    fast, well-distributed 64-bit generator whose labelled child streams
    ({!named}) are statistically independent, which lets each simulated
    component own a private stream without global sequencing. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a generator from an integer seed. Equal seeds give
    equal streams. *)

val named : t -> string -> t
(** [named t label] derives a child stream keyed by [label]; the same parent
    seed and label always yield the same stream, independent of the order in
    which other named streams are drawn. Does not advance [t]. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Requires [bound > 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. Requires
    [lo <= hi]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool

val pareto : t -> shape:float -> scale:float -> float
(** Pareto (heavy-tail) sample; used for flow sizes. *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val sample_distinct : t -> n:int -> bound:int -> int list
(** [sample_distinct t ~n ~bound] draws [n] distinct integers from
    [\[0, bound)]. Requires [n <= bound]. O(n) expected when [n] is small
    relative to [bound], O(bound) otherwise. *)

module Zipf : sig
  type gen = t

  type t
  (** Precomputed Zipf(α) sampler over ranks [0..n-1]: rank [r] has
      probability proportional to [1 / (r+1)^alpha]. *)

  val create : n:int -> alpha:float -> t
  val draw : t -> gen -> int
end
