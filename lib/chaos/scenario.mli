(** Seeded chaos scenario generation and injection.

    A scenario is a list of {!Fault.event}s drawn from a spec; [inject]
    schedules each fault's onset and repair on the network's engine,
    relative to the moment of injection. Everything is driven by the
    caller's {!Lazyctrl_util.Prng} stream, so the same seed always yields
    the same fault schedule. *)

open Lazyctrl_sim
open Lazyctrl_openflow
open Lazyctrl_core

type spec = {
  n_faults : int;
  window : Time.t;          (** onsets are drawn in [\[0, window)] *)
  min_duration : Time.t;
  max_duration : Time.t;
  kinds : Fault.kind list;  (** cycled through, so all are exercised *)
  burst : Channel.loss_spec; (** the storm model for {!Fault.Burst_loss} *)
}

val default : spec
(** 6 faults (every kind at least once) over 30 s, each lasting 3–15 s. *)

val generate :
  rng:Lazyctrl_util.Prng.t -> n_switches:int -> spec -> Fault.event list
(** Sorted by onset. @raise Invalid_argument on an empty kind list or a
    topology with fewer than two switches. *)

val last_repair : Fault.event list -> Time.t
(** Offset of the last repair; [Time.zero] for an empty list. *)

val inject :
  Network.t ->
  spec ->
  baseline:(Channel.loss_spec option * Channel.loss_spec option) ->
  Fault.event list ->
  unit
(** Schedule every fault and its repair, offsets relative to now.
    [baseline] is the (control, peer) loss model to restore when the last
    overlapping burst storm ends.  A controller fault targets controller
    [primary mod controllers] of a cluster and is inert at one
    controller. *)
