(** Simulated time.

    Time is a non-negative count of nanoseconds stored in an OCaml [int]
    (63-bit: ~292 years of range), which keeps the event queue allocation
    free and comparisons cheap. *)

type t = private int

val zero : t
val of_ns : int -> t
val of_us : int -> t
val of_ms : int -> t
val of_sec : int -> t
val of_min : int -> t
val of_hour : int -> t
val of_float_sec : float -> t
(** Rounded to the nearest nanosecond. *)

val to_ns : t -> int
val to_float_sec : t -> float
val to_float_ms : t -> float

val add : t -> t -> t
val sub : t -> t -> t
(** @raise Invalid_argument if the result would be negative. *)

val diff : t -> t -> t
(** Absolute difference. *)

val scale : t -> float -> t
val compare : t -> t -> int
val ( < ) : t -> t -> bool
val ( <= ) : t -> t -> bool
val ( > ) : t -> t -> bool
val ( >= ) : t -> t -> bool
val equal : t -> t -> bool
val min : t -> t -> t
val max : t -> t -> t
val pp : Format.formatter -> t -> unit
(** Human-readable with an adaptive unit, e.g. ["1.5ms"], ["2h"]. *)
