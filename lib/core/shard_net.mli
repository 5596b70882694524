(** The sharded lazy plane under its former name: every function
    delegates to {!Network}, which assembles it as its [shards > 1]
    case.  New code calls {!Network} directly. *)

open Lazyctrl_net
open Lazyctrl_sim
open Lazyctrl_topo
open Lazyctrl_controller
open Lazyctrl_metrics

type t = Network.t

type stats = Network.stats = {
  engine : Shard_engine.stats;
  flows_started : int;
  flows_delivered : int;
  underlay_delivered : int;
  underlay_dropped : int;
}

val create :
  ?params:Params.t ->
  ?controller_config:Controller.config ->
  ?domains:int ->
  ?shards:int ->
  ?trace:bool ->
  topo:Topology.t ->
  horizon:Time.t ->
  unit ->
  t
(** [Network.create ~mode:Lazy] with [shards] defaulting to 4 and, with
    [trace], a fresh tracer per logical shard. *)

val bootstrap : t -> unit

val start_flow :
  t -> src:Ids.Host_id.t -> dst:Ids.Host_id.t -> bytes:int -> packets:int -> unit

val run : t -> until:Time.t -> unit
val shutdown : t -> unit
val stats : t -> stats
val recorders : t -> Recorder.t array
val tracers : t -> Lazyctrl_trace.Tracer.t array
val controller : t -> Controller.t
val switch_stats_sum : t -> Lazyctrl_switch.Edge_switch.stats
