(** 48-bit Ethernet MAC addresses. *)

type t = private int
(** Stored in the low 48 bits of an [int]. *)

val of_int : int -> t
(** @raise Invalid_argument outside [\[0, 2^48)]. *)

val to_int : t -> int

val of_string : string -> t
(** Parses ["aa:bb:cc:dd:ee:ff"] (case-insensitive).
    @raise Invalid_argument on malformed input. *)

val to_string : t -> string
val broadcast : t
val is_broadcast : t -> bool

val of_host_id : int -> t
(** Deterministic locally-administered unicast address for a simulated
    host: the host id is embedded in the low bits under the 0x02 OUI. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
