(** Flow-level traffic traces.

    A trace is a time-sorted sequence of flow arrivals between hosts, the
    unit at which the control plane does work (a new flow is what triggers
    a table miss / Packet_in). Stored as struct-of-arrays so multi-million
    flow traces stay compact. *)

open Lazyctrl_sim
open Lazyctrl_net

type flow = {
  time : Time.t;
  src : Ids.Host_id.t;
  dst : Ids.Host_id.t;
  bytes : int;
  packets : int;
}

type t

module Builder : sig
  type trace = t

  type t

  val create : n_hosts:int -> duration:Time.t -> t

  val add :
    t -> time:Time.t -> src:Ids.Host_id.t -> dst:Ids.Host_id.t ->
    bytes:int -> packets:int -> unit
  (** @raise Invalid_argument on [src = dst], a time beyond the duration,
      or a host id outside [0..n_hosts-1]. *)

  val build : t -> trace
  (** Sorts by time (stable). *)
end

val n_flows : t -> int
val n_hosts : t -> int
val duration : t -> Time.t
val flow : t -> int -> flow
(** Flows are indexed [0 .. n_flows-1] in time order. *)

val iter : ?from:Time.t -> ?until:Time.t -> t -> (flow -> unit) -> unit
(** Flows with [from <= time < until]. *)

val total_bytes : t -> int

val pair_flow_counts : t -> (int * int, int) Hashtbl.t
(** Flow count per unordered host pair (key has smaller id first). *)

val communicating_pairs : t -> int
(** Number of distinct unordered pairs that exchanged at least one flow. *)

val sub_between : t -> from:Time.t -> until:Time.t -> t
(** Flows in the window, re-based to time 0. *)

val save : t -> string -> unit
(** Write the trace to a file in a compact binary format (magic +
    header + 5 int64 columns per flow). *)

val load : string -> t
(** @raise Invalid_argument on a malformed or truncated file. *)
