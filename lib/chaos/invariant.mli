(** Convergence invariant monitors.

    Checked at quiescence (all faults repaired, retransmissions drained):

    - every live switch holds a group configuration;
    - every alive controller's C-LIB row of every live switch equals that
      switch's L-FIB (dead switches' rows are stale by definition and
      skipped);
    - no Bloom false negative: each live member's G-FIB names every other
      live member of its group as a candidate for all of that member's
      hosts;
    - every alive controller's {!Lazyctrl_controller.Failover.Monitor}
      verdict is healthy;
    - no reliable session ever handed a message to application logic twice
      (the transport's own exactly-once audit).

    A controller cluster adds two:

    - [homed]: every live switch's management-plane master is alive,
      holds a group configuration covering the switch, and the switch's
      own mastership term agrees with the management plane;
    - [disjoint-ownership]: no group is mastered by two alive members.

    [check_all] returns the empty list in OpenFlow mode (no lazy-plane
    invariants apply), which [all_ok] treats as passing. *)

open Lazyctrl_net
open Lazyctrl_core
open Lazyctrl_switch

type report = { name : string; ok : bool; detail : string }

val pp_report : Format.formatter -> report -> unit
val all_ok : report list -> bool

val live_switches : Network.t -> (Ids.Switch_id.t * Edge_switch.t) list

val check_all : Network.t -> report list
