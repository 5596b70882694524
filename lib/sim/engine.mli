(** Discrete-event simulation engine.

    A single-threaded event loop over simulated {!Time}. Events scheduled
    for the same instant fire in scheduling order (deterministic FIFO
    tie-breaking), which makes whole-network simulations reproducible. *)

type t

type event_id
(** Handle for cancellation. *)

val create : unit -> t

val now : t -> Time.t

val schedule : t -> after:Time.t -> (unit -> unit) -> event_id
(** [schedule t ~after f] runs [f] at [now t + after]. *)

val schedule_at : t -> at:Time.t -> (unit -> unit) -> event_id
(** @raise Invalid_argument if [at] is in the past. *)

type post = at:Time.t -> (unit -> unit) -> unit
(** The delivery seam of the transports ({!Lazyctrl_openflow.Channel},
    {!Lazyctrl_topo.Underlay}): run a callback at an absolute time on the
    receiving side's engine.  {!Shard_engine.post} partially applied to a
    (src, dst) shard pair is one; {!post} is the single-engine one. *)

val post : t -> post
(** [post t] schedules straight onto [t], discarding the handle. *)

val every : t -> period:Time.t -> ?jitter:(unit -> Time.t) -> (unit -> unit) -> event_id
(** [every t ~period f] runs [f] at [now + period], then re-arms with the
    same period (plus [jitter ()] if given) until cancelled. The returned
    id cancels the whole recurrence. *)

val cancel : t -> event_id -> unit
(** Cancel a pending event; no-op if it already fired or was cancelled. *)

val pending : t -> int
(** Number of live (non-cancelled) scheduled events. *)

val step : t -> bool
(** Fire the next event; [false] when the queue is empty. *)

val run : ?until:Time.t -> t -> unit
(** Drain the queue. With [until], stops (without firing) at the first
    event strictly after the horizon and sets the clock to [until]. *)

val events_processed : t -> int
(** Total events fired since creation (for sanity checks and tests). *)

val next_time : t -> Time.t option
(** Time of the earliest live event, or [None] when the queue is empty.
    Does not fire anything or move the clock; {!Shard_engine} uses it to
    skip idle synchronization windows. *)
