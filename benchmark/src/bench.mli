(** The two measuring modes and their checks.

    [run] reports the end-to-end metrics with tracing off.  [trace] is a
    separate run with an enabled tracer and [Engine.step] timed one
    event at a time, followed by the unit-cost probes; it reports the
    per-layer metrics.  Each mode repeats fixed-work repetitions of the
    workload until [seconds] have passed and reports medians. *)

type metric = { name : string; unit_ : string; value : float }

type result = {
  mode : string;  (** ["run"] or ["trace"] *)
  workload : Workload.t;
  seed : int;
  hosts : int;
  switches : int;
  reps : int;  (** measured repetitions *)
  problems : string list;  (** why the run is not correct; empty when it is *)
  counts : Workload.counts;  (** of the first repetition *)
  attempted : int;  (** simulations run: the measured repetitions *)
  failed : int;
      (** repetitions whose exact counts differ from the first one's, or
          whose Reliable layer reports violations *)
  metrics : metric list;
}

val run : Workload.t -> seed:int -> seconds:float -> result

val trace : Workload.t -> seed:int -> seconds:float -> result

val check_counts : (string * Workload.counts) list -> string list
(** One problem per labelled count set that differs from the first. *)

val header_json : result -> Lazyctrl_perf.Json.t
(** Workload, seed, host and topology description of a result. *)

val result_json : result -> Lazyctrl_perf.Json.t
(** [{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}]. *)

val one_line : Lazyctrl_perf.Json.t -> string
(** The document on a single line, without the trailing newline. *)
