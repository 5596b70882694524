(* The one place under lib/ that reads the host clock.

   Benchmark measurement needs real elapsed time, which is exactly what
   the determinism rules ban everywhere else: simulated state must never
   depend on the host clock.  The D003 wall-clock rule flags every such
   read; this file's is the one lib/ exception in .lazyctrl-lint-allow.
   No library under lib/ lists lazyctrl_perf in its dune libraries, so
   the compiler keeps the rest of lib/ from calling it.  The measurements flow one way — out of the process into
   reports — never back into simulation state.

   CLOCK_MONOTONIC (via bechamel's stub) rather than gettimeofday: bench
   intervals must not jump when NTP slews the wall clock. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let elapsed_ns ~since = now_ns () - since
