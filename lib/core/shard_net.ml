(* Delegation to [Network], which assembles the sharded plane as its
   [shards > 1] case.  Only the names the benchmark project uses are
   kept. *)

module Tracer = Lazyctrl_trace.Tracer

type t = Network.t

type stats = Network.stats = {
  engine : Lazyctrl_sim.Shard_engine.stats;
  flows_started : int;
  flows_delivered : int;
  underlay_delivered : int;
  underlay_dropped : int;
}

let create ?params ?controller_config ?domains ?(shards = 4) ?(trace = false)
    ~topo ~horizon () =
  Network.create ?params ?controller_config ?domains ~shards
    ~tracer:(if trace then Tracer.create () else Tracer.disabled)
    ~mode:Network.Lazy ~topo ~horizon ()

let bootstrap t = Network.bootstrap t ()
let start_flow = Network.start_flow
let run = Network.run
let shutdown = Network.shutdown
let stats = Network.stats
let recorders = Network.recorders
let tracers = Network.tracers
let controller t = Option.get (Network.lazy_controller t)
let switch_stats_sum = Network.switch_stats_sum
