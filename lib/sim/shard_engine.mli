(** Domain-parallel discrete-event simulation: S logical shards, each a
    private {!Engine.t}, coordinated in conservative time windows over
    D <= S physical OCaml 5 domains.

    Time advances in grid-aligned windows of width W (window k covers
    [(kW, (k+1)W]]).  Per window: all shards with live events run their
    engines to the window end in parallel; the pool barrier publishes
    every cross-shard {!post}; the coordinator merges the posts into the
    destination engines sorted by [(arrival time, src shard, seq)].
    Idle windows are skipped by jumping straight to the window holding
    the globally earliest event.

    {b Conservative rule:} a cross-shard post made inside window k must
    arrive strictly after k's end — guaranteed by construction when
    every cross-shard latency is at least W, and enforced by {!post}
    raising {!Conservative_violation}.

    {b Determinism:} within a window, shards share no mutable state (the
    S00x ownership spec gates this), so each shard's post stream is a
    pure function of simulation state; the merge key and the window grid
    never mention a physical domain.  Hence the same seed produces
    byte-identical observable state at every domain count —
    [test_shard.ml] checks this property, and the CI multicore matrix
    runs it at D = 1, 2, 4. *)

exception
  Conservative_violation of { src : int; dst : int; at : Time.t; window_end : Time.t }

type t

type stats = {
  domains : int;
  shards : int;
  windows : int;  (** busy windows executed; idle ones are skipped *)
  messages : int;  (** cross-shard messages delivered *)
  max_window_batch : int;  (** largest single-barrier message batch *)
  events : int;  (** engine events fired, summed over shards *)
  pair_counts : int array array;  (** messages posted per (src, dst) *)
}

val default_domains : unit -> int
(** Domain count from the [LAZYCTRL_DOMAINS] environment variable
    (the CI matrix leg sets it); 1 when unset or unparsable. *)

val create : ?domains:int -> shards:int -> window:Time.t -> unit -> t
(** [create ~shards ~window ()] builds [shards] fresh engines.
    [domains] defaults to {!default_domains}[ ()] and is clamped to
    [1..shards]; worker domains are spawned only when the clamp result
    exceeds 1.  @raise Invalid_argument on [shards < 1], or on a
    non-positive window when [shards > 1] (one shard never uses it). *)

val shards : t -> int
val domains : t -> int
val window : t -> Time.t

val engine : t -> int -> Engine.t
(** Shard [i]'s private engine.  All scheduling for shard-local work
    goes straight to it; only its owning domain may touch it during a
    window. *)

val now : t -> Time.t
(** Completed horizon: minimum over the shard clocks. *)

val post : t -> src:int -> dst:int -> at:Time.t -> (unit -> unit) -> unit
(** Deliver [f] on shard [dst]'s engine at time [at].  [src = dst]
    schedules directly.  Cross-shard posts go through the exchange and
    must satisfy the conservative rule.
    @raise Conservative_violation when [at] is not strictly after the
    current window's end. *)

val run : t -> until:Time.t -> unit
(** Advance every shard to [until] (inclusive, matching
    {!Engine.run}), window by window.  All shard clocks equal [until]
    afterwards.  A single shard runs its engine directly: no windows,
    no exchange. *)

val stats : t -> stats

val shutdown : t -> unit
(** Join the worker domains.  Idempotent; call when done with [t] so
    repeated runs (benches, property tests) do not accumulate OS
    threads. *)
