(** Compare two directories of saved benchmark outputs.

    Each file holds one run's standard output: a header line naming the
    workload and a last line with the metrics (see {!Bench}).  Runs are
    grouped by mode and workload; every metric gets its median and
    quartiles on each side.  An end-to-end metric whose median in [B]
    differs from [A]'s by more than its bound makes the comparison fail. *)

val quartiles : float list -> float * float * float
(** [(q1, median, q3)] as Python's [statistics.quantiles(xs, n=4)]
    computes them (the exclusive method); a single value is its own
    quartiles.  @raise Invalid_argument on an empty list. *)

type bound = { metric : string; bound : float }

val bounds_of_spec : string -> (bound list, string) result
(** The [end_to_end] entries of a [BENCHMARK.json] document. *)

val compare_dirs : bounds:bound list -> string -> string -> bool
(** Print the per-workload tables for two directories.  [true] only when
    every file holds a correct result, every end-to-end ([run]) result
    carries every bounded metric, both sides hold the same (mode,
    workload) groups, and every bounded median agrees. *)
