(** Trace generators.

    [real_like] synthesizes a day-long, multi-tenant trace calibrated to
    the aggregate statistics the paper reports for its production trace
    (§II.A / Table II): traffic confined to a small set of communicating
    pairs, ~90% of flows from ~10% of those pairs, high group centrality,
    and a diurnal temporal profile.

    [synthetic] implements the §V-B recipe for Syn-A/B/C: [p]% of flows
    drawn uniformly from a fixed hot set of pairs ([q]% of the intra-tenant
    pair universe, with a locality that shrinks as [q] grows), the rest
    uniform over all host pairs; payloads resampled from a base trace.

    [expand] implements the §V-D expanded trace: extra flows among
    previously non-communicating pairs during hours 8–24.

    Flow counts are an explicit parameter: we reproduce the paper's traces
    at a configurable sampling factor (see EXPERIMENTS.md). *)

open Lazyctrl_sim
open Lazyctrl_topo
module Prng = Lazyctrl_util.Prng

val real_like :
  rng:Prng.t ->
  topo:Topology.t ->
  n_flows:int ->
  ?duration:Time.t ->
  ?active_pair_fraction:float ->
  ?zipf_alpha:float ->
  ?cross_tenant_fraction:float ->
  ?churn:float ->
  unit ->
  Trace.t
(** Defaults: 24 h duration, 7% of each tenant's pairs active, Zipf α=1.45
    across active pairs, 8% cross-tenant flows, and 35% of pairs active
    only inside a private 4-hour window ([churn]) so the intensity matrix
    drifts across the day. *)

val synthetic :
  rng:Prng.t ->
  topo:Topology.t ->
  base:Trace.t ->
  n_flows:int ->
  p:int ->
  q:int ->
  Trace.t
(** [p], [q] in percent, as in Table II (Syn-A = 90/10, Syn-B = 70/20,
    Syn-C = 70/30). @raise Invalid_argument outside [\[1,100\]]. *)

val expand :
  rng:Prng.t ->
  topo:Topology.t ->
  extra_fraction:float ->
  from_hour:int ->
  until_hour:int ->
  Trace.t ->
  Trace.t
(** Adds [extra_fraction] × (original flow count) new flows among pairs
    absent from the original trace, in the given hour window. *)
