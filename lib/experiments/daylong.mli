(** The day-long packet-level runs behind Figs. 7, 8 and 9.

    Five configurations, as in §V-D: standard OpenFlow on the real-like
    trace, and LazyCtrl in {static, dynamic} × {real, expanded}. Each run
    replays 24 simulated hours through the full network simulation; the
    recorder's bucketed series are then sliced into the three figures.
    Runs are memoized per (seed, flow count) within a process. *)

open Lazyctrl_metrics

type config_name =
  | Openflow_real
  | Lazy_real_static
  | Lazy_real_dynamic
  | Lazy_expanded_static
  | Lazy_expanded_dynamic

type run_result = {
  name : config_name;
  recorder : Recorder.t;
  switch_punted : int;
  switch_gfib_handled : int;
  flows_delivered : int;
  flows_started : int;
}

val run :
  ?tracer:Lazyctrl_trace.Tracer.t ->
  ?seed:int ->
  ?n_flows:int ->
  config_name ->
  run_result
(** Default: seed 42, 120k flows (a 1/2258 sampling of the paper's 271M;
    see EXPERIMENTS.md).  Results are memoized per
    [(config, seed, n_flows)] — except when [tracer] is given, which
    always performs a fresh, flight-recorded run. *)

val fig7_table : ?seed:int -> ?n_flows:int -> unit -> Lazyctrl_util.Table.t
(** Controller workload (requests/s) per 2-hour bucket for all five
    configurations. *)

val fig7_bytes_table : ?seed:int -> ?n_flows:int -> unit -> Lazyctrl_util.Table.t
(** Fig. 7 re-cast in real units: control-channel load in bytes/sec per
    2-hour bucket for all five configurations, as priced by the binary
    wire codec (DESIGN.md §13). *)

val ctrl_bytes_reduction : ?seed:int -> ?n_flows:int -> unit -> float
(** Overall reduction of control-channel bytes, LazyCtrl (real, dynamic)
    vs OpenFlow — the byte-level counterpart of {!workload_reduction}. *)

val fig8_table : ?seed:int -> ?n_flows:int -> unit -> Lazyctrl_util.Table.t
(** Grouping updates per hour, real vs expanded (dynamic runs). *)

val fig9_table : ?seed:int -> ?n_flows:int -> unit -> Lazyctrl_util.Table.t
(** Average forwarding latency (ms) per 2-hour bucket, OpenFlow vs
    LazyCtrl (real, dynamic). *)

val workload_reduction : ?seed:int -> ?n_flows:int -> unit -> float
(** Overall reduction of controller requests, LazyCtrl (real, dynamic) vs
    OpenFlow — the paper's headline "up to 82%". *)
