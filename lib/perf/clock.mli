(** Host monotonic clock: the perf layer's one read of host time.

    This is deliberately separate from {!Lazyctrl_sim.Time}: simulated
    time is deterministic and advances only through the engine, while
    this clock measures real elapsed nanoseconds for benchmark reports.
    Nothing outside [lib/perf] (and the bench/test harnesses) may read
    it: no other library under [lib/] depends on [lazyctrl_perf], and
    the lazyctrl-lint wall-clock rule (D003) flags any direct clock
    read, with this module's one allowlist entry as the exception. *)

val now_ns : unit -> int
(** Monotonic timestamp in nanoseconds.  Only differences are
    meaningful. *)

val elapsed_ns : since:int -> int
(** [elapsed_ns ~since] is [now_ns () - since]. *)
