(** Single-server FIFO processing queue (M/D/1-style).

    Models the controller's CPU: each submitted request occupies the
    server for a fixed service time; requests arriving while the server is
    busy wait in FIFO order. This is what makes the baseline controller's
    latency blow up under load — the effect behind the paper's 15 ms
    cold-cache measurement — without hard-coding any latency. *)

open Lazyctrl_sim

type t

val create : Engine.t -> service_time:Time.t -> t

val submit : t -> (unit -> unit) -> unit
(** Run the continuation when the request finishes service. *)

val queue_length : t -> int
(** Requests submitted but not yet finished. *)

val completed : t -> int
