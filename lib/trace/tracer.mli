(** The flight recorder: a deterministic, bounded event sink.

    A tracer is threaded (optionally) through every simulated component.
    The disabled singleton {!disabled} is the default everywhere, and
    instrumentation sites guard with {!enabled} before building event
    payloads, so a run without tracing pays one load-and-branch per
    decision point — a cost inside the [packet-replay] bench row, which
    runs untraced; the [trace-overhead] target prices an enabled tracer
    against it.

    Determinism: span ids are [(sim-time, per-tracer sequence number)];
    no wall clock, no randomness, no hash-order dependence (cross-flow
    state lives in hash tables but is only ever read per-key or via
    {!Lazyctrl_util.Det} sorted traversal).

    Boundedness: recorded events live in a ring buffer of [capacity]
    events; old events are evicted, but per-kind counters and per-flow
    verdicts are cumulative, so {!summary} is exact even after eviction.

    Sampling: when [sample_every = n > 1], only flows whose id is
    divisible by [n] are recorded; events not tied to a flow are always
    recorded.  Sampling is by flow id — deterministic, not random — so
    the same flows are kept across runs. *)

type t

val disabled : t
(** The shared no-op tracer: {!enabled} is [false] and {!emit} returns
    immediately. *)

val create : ?sample_every:int -> ?capacity:int -> unit -> t
(** An enabled tracer.  [sample_every] defaults to [1] (record every
    flow); [capacity] defaults to [262144] events.
    @raise Invalid_argument if [sample_every < 1] or [capacity < 1]. *)

val derive : t -> t
(** A fresh, empty tracer with [t]'s sampling and capacity ({!disabled}
    when [t] is): the per-shard flight recorders of a sharded network. *)

val enabled : t -> bool
(** Guard for instrumentation sites: check this before allocating event
    payloads so disabled tracing stays near-free. *)

val sampled : t -> int -> bool
(** Whether events for this flow id are recorded. *)

val emit :
  t -> now:Lazyctrl_sim.Time.t -> ?flow:int -> ?switch:int ->
  Event.kind -> unit
(** Record one event.  No-op when disabled or when [flow] is sampled
    out.  The event's [parent] is the span of the previous event
    recorded for the same flow, forming the causal chain. *)

val flow_of_packet : Lazyctrl_net.Packet.t -> int option
(** Flow id of a data frame — [src_port lor (dst_port lsl 16)], the same
    encoding the host model uses — or [None] for ARP. *)

val events : t -> Event.t list
(** Buffered events, oldest first (at most [capacity]). *)

val recorded : t -> int
(** Cumulative events recorded, including evicted ones. *)

val dropped : t -> int
(** Events evicted from the ring so far. *)

val counts : t -> (string * int) list
(** Cumulative per-kind counters [(kind label, count)], in tag order,
    zero entries omitted. *)

val controller_requests : t -> int
(** Cumulative [Ctrl_request] events; with sampling off this equals the
    recorder's total controller request count — the Fig. 7 cross-check. *)

val add_ctrl_bytes : t -> int -> unit
(** Charge [n] bytes of control-channel load (fed by
    {!Lazyctrl_openflow.Channel.set_wire_hook}, one call per encoded
    send).  A running accumulator rather than ring events: byte totals
    are exempt from sampling and eviction, so {!ctrl_bytes} always equals
    the sum of the channels' own byte counters exactly (DESIGN.md §13's
    cross-check).  No-op when disabled. *)

val ctrl_bytes : t -> int
(** Cumulative control-channel bytes charged so far (0 when disabled). *)

val summary : t -> Laziness.summary
(** Laziness accounting from the cumulative per-flow state (exact even
    after ring eviction). *)
