(** Simulated control-plane channels (the paper's control, state and peer
    links).

    A channel is a unidirectional FIFO with a configurable base latency and
    optional jitter, carried over the discrete-event engine. Delivery
    order is always FIFO even under jitter (a later send never overtakes an
    earlier one, like a TCP connection). Channels can be failed and
    repaired to drive the failover machinery; messages sent while down are
    counted as dropped.

    A channel may additionally carry a seeded Gilbert–Elliott loss model:
    each send is lost (or duplicated) with a probability that depends on a
    two-state good/bad Markov chain, drawn from a {!Lazyctrl_util.Prng}
    stream so runs stay byte-reproducible. Random loss is distinct from
    drops: [dropped] counts messages killed by a downed channel or a
    missing receiver, [lost] counts messages eaten by the loss model. *)

open Lazyctrl_sim
module Prng = Lazyctrl_util.Prng

type loss_spec = {
  p_loss_good : float;  (** per-message loss probability in the good state *)
  p_loss_bad : float;  (** per-message loss probability in the bad state *)
  p_good_to_bad : float;  (** per-message transition probability *)
  p_bad_to_good : float;  (** per-message transition probability *)
  p_duplicate : float;  (** probability a surviving message is delivered twice *)
}

val uniform_loss : ?dup:float -> float -> loss_spec
(** Memoryless loss at the given rate (the chain never leaves the good
    state); [dup] defaults to 0. *)

val bursty_loss : ?dup:float -> base:float -> burst:float -> unit -> loss_spec
(** Gilbert–Elliott bursts: [base] loss in the good state, [burst] loss in
    the bad state, with moderate transition probabilities. *)

type 'msg t

val create :
  ?strict:bool ->
  Engine.t ->
  post:Engine.post ->
  latency:Time.t ->
  ?jitter:(unit -> Time.t) ->
  name:string ->
  unit ->
  'msg t
(** [create engine ~post] reads the send time from [engine] (the
    sender's clock) and hands every delivery to [post], which schedules
    it on the receiver's engine: [Engine.post engine] when both ends
    share one engine, a {!Lazyctrl_sim.Shard_engine.post} when they sit
    on different shards.  [strict] (default [false]) turns a delivery
    that finds no receiver into an [Invalid_argument] exception instead
    of a silent drop — it flags wiring-order bugs where a message is sent
    before {!set_receiver}. *)

val name : 'msg t -> string

val set_receiver : 'msg t -> ('msg -> unit) -> unit
(** Must be set before the first delivery fires; messages delivered with
    no receiver are counted as dropped (or raise under [~strict:true]). *)

val set_loss : 'msg t -> rng:Prng.t -> loss_spec -> unit
(** Attach (or replace) the loss model. The channel takes ownership of
    [rng] and consumes exactly three draws per send, so a dedicated
    {!Prng.named} sub-stream per channel keeps runs reproducible. *)

val clear_loss : 'msg t -> unit

val set_codec :
  'msg t -> encode:('msg -> bytes) -> decode:(bytes -> 'msg) -> unit
(** Attach a binary codec (normally [Lazyctrl_wire.Wire]): every
    subsequent send is encoded to one frame, the frame's length is added
    to {!bytes_sent} (and reported to the {!set_wire_hook} tap), and the
    value handed to the receiver is reconstructed by [decode] from those
    bytes — so the channel genuinely carries bytes and any codec
    infidelity is observable as a behavioral change. Loss-model draw
    alignment, FIFO order and epochs are unaffected. *)

val set_wire_hook : 'msg t -> (int -> unit) -> unit
(** Called with the frame length, once per encoded send (not per
    duplicate), at the instant {!bytes_sent} grows — the tap the metrics
    recorder hangs off, which keeps its byte totals equal to the channel
    counters by construction. *)

val send : 'msg t -> 'msg -> bool
(** Enqueue for delivery after the channel latency; [false] (and a drop)
    when the channel is down. Random loss/duplication by the loss model is
    invisible to the sender and still returns [true]. *)

val fail : 'msg t -> unit
(** Take the channel down. In-flight messages are lost. *)

val repair : 'msg t -> unit
val is_up : 'msg t -> bool

val sent : 'msg t -> int
val delivered : 'msg t -> int

val bytes_sent : 'msg t -> int
(** Total encoded frame bytes accepted for transmission (0 until a codec
    is attached). Loss eats copies after this count, like a real NIC
    counter on the sending side. *)

val bytes_delivered : 'msg t -> int
(** Total frame bytes of messages actually handed to the receiver,
    counting duplicated deliveries twice. *)

val dropped : 'msg t -> int
(** Messages killed because the channel was down (at send or delivery
    time) or no receiver was set. *)

val lost : 'msg t -> int
(** Messages eaten by the loss model. *)

val duplicated : 'msg t -> int
(** Messages the loss model delivered twice. *)
