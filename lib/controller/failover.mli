(** Control-plane failure detection and inference (§III-E, Table I).

    Three keep-alive streams exist per switch [Sn] on the wheel: to its
    ring predecessor ([Sn → Sn−1], the "up" peer direction), to its ring
    successor ([Sn → Sn+1], "down"), and the controller's echo over the
    control link ([Controller → Sn], answered by an echo reply). The
    inference of Table I maps the observed loss pattern to the failed
    component. The {!Monitor} collects the controller-side evidence:
    ring alarms reported by neighbours and overdue echo replies.

    The controller-cluster layer adds a fourth stream: a second
    controller's echo spoke to the same switch. Its evidence
    ([peer_answering]) proves the switch alive, which lets the table
    split a lost master echo into {!Control_link_failure} versus
    {!Controller_failure} ([master_silent]: the master instance's own
    coordination keep-alives stopped) instead of swallowing the pattern
    as {!Ambiguous}. *)

open Lazyctrl_net
open Lazyctrl_sim

type observation = {
  up_lost : bool;  (** [Sn → Sn−1] keep-alives missing *)
  down_lost : bool;  (** [Sn → Sn+1] keep-alives missing *)
  ctrl_lost : bool;  (** [Controller → Sn] echo unanswered *)
  peer_answering : bool;
      (** a second controller's echo spoke to [Sn] still gets replies *)
  master_silent : bool;
      (** [Sn]'s master controller stopped answering coordination
          keep-alives (cluster evidence; always false standalone) *)
}

type verdict =
  | Healthy
  | Control_link_failure
  | Peer_link_up_failure
  | Peer_link_down_failure
  | Switch_failure
  | Ambiguous
      (** a pattern outside Table I (e.g. two simultaneous independent
          losses); the paper leaves these to operator escalation *)
  | Controller_failure
      (** the switch is alive on a second spoke but its master
          controller instance is gone — re-home, don't reboot *)

val infer : observation -> verdict
(** Pure (extended) Table I lookup. *)

val verdict_equal : verdict -> verdict -> bool
(** Dedicated comparisons — prefer these to polymorphic [=] on verdicts. *)

val pp_verdict : Format.formatter -> verdict -> unit

module Monitor : sig
  type t

  val create : Engine.t -> echo_timeout:Time.t -> t

  val register : t -> Ids.Switch_id.t -> unit
  (** Start tracking a switch; it begins Healthy with a fresh echo. *)

  val unregister : t -> Ids.Switch_id.t -> unit

  val registered : t -> Ids.Switch_id.t list
  (** Tracked switches, sorted — the set a sharded controller echoes. *)

  val echo_sent : t -> Ids.Switch_id.t -> unit
  val echo_received : t -> Ids.Switch_id.t -> unit

  val ring_alarm :
    t -> missing:Ids.Switch_id.t -> direction:[ `Up | `Down ] -> unit
  (** A neighbour reported a missing keep-alive from [missing]. *)

  val ring_recovered : t -> Ids.Switch_id.t -> unit
  (** Clear ring-loss evidence (e.g. after repair). *)

  val peer_evidence : t -> Ids.Switch_id.t -> answering:bool -> unit
  (** Cluster evidence: a backup controller's spoke to this switch is
      (or stopped) answering. *)

  val master_evidence : t -> Ids.Switch_id.t -> silent:bool -> unit
  (** Cluster evidence: the switch's master controller went silent on
      the coordination plane (or came back). *)

  val verdict : t -> Ids.Switch_id.t -> verdict

  val sweep : t -> (Ids.Switch_id.t * verdict) list
  (** All tracked switches whose current verdict is not [Healthy]. *)
end
