(** IPv4 addresses (used for hosts and the underlay tunnel endpoints). *)

type t = private int

val of_int : int -> t
(** @raise Invalid_argument outside [\[0, 2^32)]. *)

val to_int : t -> int

val of_string : string -> t
(** Dotted quad. @raise Invalid_argument on malformed input. *)

val to_string : t -> string

val of_octets : int -> int -> int -> int -> t

val of_host_id : int -> t
(** Deterministic address in 10.0.0.0/8 for a simulated host. *)

val of_switch_id : int -> t
(** Deterministic underlay endpoint in 172.16.0.0/12 for an edge switch. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
