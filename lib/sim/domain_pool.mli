(** Persistent worker-domain pool for the sharded engine.

    Spawns [lanes - 1] OCaml 5 domains once and parks them between
    barrier rounds; {!run_all} fans an array of thunks out over the
    lanes (the calling domain is lane [lanes - 1]) and returns only when
    every thunk has finished — it is the per-window barrier of
    {!Shard_engine}.  Mutex-protected job handoff provides the
    happens-before edges in both directions, so thunks may freely read
    state written by the caller before [run_all] and the caller may read
    thunk-written state after it.

    The pool decides only {e where} thunks run, never what or in which
    logical order: chunk assignment is a pure function of the lane and
    thunk counts. *)

type t

val create : lanes:int -> t
(** [create ~lanes] spawns [lanes - 1] worker domains ([lanes] is
    clamped to at least 1, in which case nothing is spawned and
    {!run_all} degenerates to a sequential loop). *)

val lanes : t -> int
(** Total execution lanes, including the calling domain. *)

val run_all : t -> (unit -> unit) array -> unit
(** Run every thunk to completion, in parallel across the lanes.
    Thunks must touch disjoint state (kept apart upstream: [Network]
    builds each shard's state apart, shards meet only through the
    {!Shard_engine.post} seam, and the [S001-module-state] lint rules
    out module-level state).  If any thunk raises, the exception of the
    lowest-numbered failing lane is re-raised here — after all lanes
    have gone idle, so the barrier still holds. *)

val shutdown : t -> unit
(** Stop and join the worker domains.  Idempotent.  [run_all] on a
    multi-lane pool after shutdown raises [Invalid_argument]. *)
