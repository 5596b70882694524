(** Bloom filters, as used for the G-FIB.

    Each edge switch's G-FIB holds one filter per peer switch in its local
    control group, each summarizing that peer's L-FIB (the set of MAC
    addresses attached to it). Keys are arbitrary 63-bit integers (we use
    {!Lazyctrl_net.Mac.to_int}); membership uses Kirsch–Mitzenmacher
    double hashing, so only two independent 64-bit hashes are computed per
    operation regardless of [k].

    The G-FIB keeps {!Counting} filters, which support deletion: peers
    advertise their L-FIBs as key lists, and each receiver adds and
    removes those keys in place. The plain filter is what the storage
    experiment fills from an L-FIB to estimate the false-positive rate. *)

type t

val create : ?hashes:int -> bits:int -> unit -> t
(** [create ~bits ()] makes an empty filter of [bits] bits (rounded up to a
    multiple of 64). Default [hashes] is 4, the classic choice for
    ~16 bits/entry tables.
    @raise Invalid_argument if [bits <= 0] or [hashes <= 0]. *)

val add : t -> int -> unit
val mem : t -> int -> bool
(** No false negatives; false positives at the designed rate. *)

val fill_ratio : t -> float
(** Fraction of bits set. *)

val estimated_fp_rate : t -> float
(** [(fill_ratio)^hashes] — the probability a random absent key tests
    positive given the current fill. *)

module Counting : sig
  (** Counting Bloom filter with the semantics of saturating 8-bit
      counters: an add at 255 is absorbed, and a remove leaves a counter
      at 0 or 255 unchanged. It stores them as the plain filter's bit
      array (a bit is set exactly when its counter is above zero) plus a
      small table holding only the counters of 2 or more, so a filter
      costs about its bit array, [size / 8] bytes. [mem] is the plain
      filter's and allocates nothing; an [add] may grow the table. *)

  type t

  val create : ?hashes:int -> counters:int -> unit -> t
  val add : t -> int -> unit

  val remove : t -> int -> unit
  (** Decrements the key's counters; saturated counters stay put (standard
      counting-BF semantics — saturation can leave residue). *)

  val mem : t -> int -> bool
  val clear : t -> unit

  val size : t -> int
  (** Number of counters: the bit count of a plain filter that probes
      the same positions. *)
end
