(** Fault vocabulary for chaos scenarios.

    Each kind maps onto one of {!Lazyctrl_core.Network}'s failure-injection
    entry points; {!Burst_loss} temporarily replaces the channel loss model
    on every control and peer link with a harsher one. *)

open Lazyctrl_net
open Lazyctrl_sim

type kind =
  | Switch_off     (** power the switch down, power it back up *)
  | Control_link   (** sever the switch's controller channel, both ways *)
  | Peer_link      (** sever a peer channel pair *)
  | Data_path      (** break the one-way underlay path, with notification *)
  | Burst_loss     (** network-wide loss storm on all control channels *)
  | Controller_kill
      (** kill one controller-cluster member mid-run (a no-op at one
          controller) *)
  | Controller_partition
      (** cut one member off the coordination mesh — control links stay
          up, so both sides of the split keep claiming switches until
          the heal reconciles terms (a no-op at one controller) *)

val all_kinds : kind list
(** The single-controller vocabulary (no cluster faults). *)

val cluster_kinds : kind list
(** What a controller cluster can inject: the two controller
    faults plus the switch/loss faults that remain meaningful there. *)

val kind_label : kind -> string

type event = {
  at : Time.t;       (** offset from injection time *)
  duration : Time.t;
  kind : kind;
  primary : Ids.Switch_id.t;
      (** for controller faults, reduced to a controller index by
          [Scenario.inject] ([to_int] mod the controller count) *)
  secondary : Ids.Switch_id.t;
      (** the far end for [Peer_link]/[Data_path]; ignored otherwise *)
}

val repair_at : event -> Time.t
(** [at + duration], still an offset. *)

val pp_event : Format.formatter -> event -> unit
