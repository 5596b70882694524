(** Binary heaps.

    Three flavours are provided: {!Flat}, the allocation-free heap inside
    the discrete-event scheduler's queue; {!Indexed}, a priority queue with
    adjustable keys behind the partitioner's region growing; and a plain
    polymorphic min-heap, the reference the tests check {!Flat}
    against. *)

type 'a t
(** Min-heap over elements of type ['a] with an explicit comparison. *)

val create : cmp:('a -> 'a -> int) -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool
val push : 'a t -> 'a -> unit

val peek : 'a t -> 'a option
(** Smallest element without removing it. *)

val pop : 'a t -> 'a option
(** Remove and return the smallest element. *)

val pop_exn : 'a t -> 'a
(** @raise Invalid_argument on an empty heap. *)

val clear : 'a t -> unit

val to_sorted_list : 'a t -> 'a list
(** Non-destructive: elements in ascending order. O(n log n). *)

module Flat : sig
  (** Allocation-free binary min-heap over [(time, seq, payload)] integer
      triples, ordered lexicographically on [(time, seq)]. Backing store
      is three parallel [int] arrays, so pushes and pops allocate nothing
      (amortized; the arrays double on growth). Built for the
      discrete-event scheduler hot path. The engine's queue uses two:
      its fallback, for events whose delay found no FIFO lane, where the
      payload is a slot index into the engine's event table; and the
      small heap of its lanes, where the payload is a lane index. *)

  type t

  val create : ?capacity:int -> unit -> t
  (** [create ()] makes an empty heap; [capacity] (default 16) presizes
      the backing arrays. *)

  val length : t -> int
  val is_empty : t -> bool
  val clear : t -> unit

  val push : t -> time:int -> seq:int -> payload:int -> unit

  val min_time : t -> int
  (** @raise Invalid_argument on an empty heap (also the two below). *)

  val min_seq : t -> int
  val min_payload : t -> int

  val remove_min : t -> unit
  (** Drop the minimum element. Read it first via [min_*].
      @raise Invalid_argument on an empty heap. *)

  val replace_min : t -> time:int -> seq:int -> payload:int -> unit
  (** [remove_min] then [push] in one sift: the engine's lane heap moves
      a lane to its next head this way.
      @raise Invalid_argument on an empty heap. *)
end

module Indexed : sig
  (** Max-priority queue over integer keys [0..n-1] with float priorities
      and O(log n) [adjust]. Keys may be absent. *)

  type t

  val create : int -> t
  (** [create n] supports keys [0..n-1], initially all absent. *)

  val mem : t -> int -> bool
  val cardinal : t -> int

  val insert : t -> int -> float -> unit
  (** @raise Invalid_argument if the key is already present. *)

  val priority : t -> int -> float
  (** @raise Not_found if absent. *)

  val adjust : t -> int -> float -> unit
  (** [adjust t k p] sets key [k]'s priority to [p] (up or down),
      inserting it if absent. *)

  val pop_max : t -> (int * float) option
  (** Remove and return the key with the largest priority. *)
end
