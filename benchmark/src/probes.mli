(** Post-run unit-cost probes: what one operation of a layer costs on
    this host, measured outside the simulation with
    {!Lazyctrl_perf.Measure} so the trace mode can attribute run time to
    layers by multiplying unit costs by the run's counts. *)

type costs = {
  bare_step_ns : float;  (** [Engine.step] on a no-op event *)
  lfib_lookup_ns : float;
  gfib_probe_ns : float;
  encode_ns : float;  (** per message of the control mix *)
  decode_ns : float;
  words_per_msg : float;  (** minor words per encode + decode *)
}

val measure :
  ops:int -> Lazyctrl_topo.Topology.t -> Lazyctrl_traffic.Trace.t -> costs
(** [ops] operations per timed repetition.  The L-FIB holds the hosts of
    the switch that sources the most flows; the G-FIB holds the hosts of
    the 13 switches it sends the most flows to (a full 14-switch group);
    both are probed with every flow's destination MAC.  The codec runs a
    fixed keepalive / advert / [Packet_in] / [Flow_mod] / [Buffer_out]
    mix. *)
