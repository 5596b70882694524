open Lazyctrl_net
open Lazyctrl_sim

type observation = {
  up_lost : bool;
  down_lost : bool;
  ctrl_lost : bool;
  peer_answering : bool;
  master_silent : bool;
}

let observation_healthy =
  {
    up_lost = false;
    down_lost = false;
    ctrl_lost = false;
    peer_answering = false;
    master_silent = false;
  }

type verdict =
  | Healthy
  | Control_link_failure
  | Peer_link_up_failure
  | Peer_link_down_failure
  | Switch_failure
  | Ambiguous
  | Controller_failure

(* Dedicated comparisons so verdict tests never fall back to polymorphic
   equality (and so List.mem/assoc-style helpers have something to use). *)
let verdict_rank = function
  | Healthy -> 0
  | Control_link_failure -> 1
  | Peer_link_up_failure -> 2
  | Peer_link_down_failure -> 3
  | Switch_failure -> 4
  | Ambiguous -> 5
  | Controller_failure -> 6

let verdict_equal a b = Int.equal (verdict_rank a) (verdict_rank b)

(* Table I extended with the cluster's second spoke: when another
   controller's echo spoke still reaches the switch (peer_answering),
   the switch is provably alive, so a lost master echo splits into "the
   master instance died" (master_silent: its coordination keep-alives
   stopped too) versus "only my control link died".  Without that
   second spoke the observation reduces to the paper's 3-bit table. *)
let infer = function
  | { peer_answering = true; ctrl_lost = true; master_silent = true; _ } ->
      Controller_failure
  | { peer_answering = true; ctrl_lost = true; master_silent = false; _ } ->
      Control_link_failure
  | { up_lost = false; down_lost = false; ctrl_lost = false; _ } -> Healthy
  | { up_lost = false; down_lost = false; ctrl_lost = true; _ } ->
      Control_link_failure
  | { up_lost = true; down_lost = false; ctrl_lost = false; _ } ->
      Peer_link_up_failure
  | { up_lost = false; down_lost = true; ctrl_lost = false; _ } ->
      Peer_link_down_failure
  | { up_lost = true; down_lost = true; ctrl_lost = true; _ } -> Switch_failure
  | _ -> Ambiguous

let pp_verdict fmt v =
  Format.pp_print_string fmt
    (match v with
    | Healthy -> "healthy"
    | Control_link_failure -> "control-link failure"
    | Peer_link_up_failure -> "peer-link (up) failure"
    | Peer_link_down_failure -> "peer-link (down) failure"
    | Switch_failure -> "switch failure"
    | Ambiguous -> "ambiguous"
    | Controller_failure -> "controller failure")

module Monitor = struct
  type entry = {
    mutable last_echo_reply : Time.t;
    mutable echo_pending_since : Time.t option;
    mutable up_lost : bool;
    mutable down_lost : bool;
    mutable peer_answering : bool;
    mutable master_silent : bool;
  }

  type t = {
    engine : Engine.t;
    echo_timeout : Time.t;
    entries : entry Ids.Switch_id.Tbl.t;
  }

  let create engine ~echo_timeout =
    { engine; echo_timeout; entries = Ids.Switch_id.Tbl.create 64 }

  let register t sw =
    if not (Ids.Switch_id.Tbl.mem t.entries sw) then
      Ids.Switch_id.Tbl.replace t.entries sw
        {
          last_echo_reply = Engine.now t.engine;
          echo_pending_since = None;
          up_lost = false;
          down_lost = false;
          peer_answering = false;
          master_silent = false;
        }

  let unregister t sw = Ids.Switch_id.Tbl.remove t.entries sw

  let registered t =
    Ids.Switch_id.Tbl.fold (fun sw _ acc -> sw :: acc) t.entries []
    |> List.sort Ids.Switch_id.compare

  let find t sw = Ids.Switch_id.Tbl.find_opt t.entries sw

  let echo_sent t sw =
    match find t sw with
    | None -> ()
    | Some e ->
        if Option.is_none e.echo_pending_since then
          e.echo_pending_since <- Some (Engine.now t.engine)

  let echo_received t sw =
    match find t sw with
    | None -> ()
    | Some e ->
        e.last_echo_reply <- Engine.now t.engine;
        e.echo_pending_since <- None

  let ring_alarm t ~missing ~direction =
    match find t missing with
    | None -> ()
    | Some e -> (
        match direction with
        | `Up -> e.up_lost <- true
        | `Down -> e.down_lost <- true)

  let ring_recovered t sw =
    match find t sw with
    | None -> ()
    | Some e ->
        e.up_lost <- false;
        e.down_lost <- false

  let peer_evidence t sw ~answering =
    match find t sw with
    | None -> ()
    | Some e -> e.peer_answering <- answering

  let master_evidence t sw ~silent =
    match find t sw with
    | None -> ()
    | Some e -> e.master_silent <- silent

  let observation t sw =
    match find t sw with
    | None -> observation_healthy
    | Some e ->
        let ctrl_lost =
          match e.echo_pending_since with
          | None -> false
          | Some since ->
              Time.(Time.diff (Engine.now t.engine) since > t.echo_timeout)
        in
        {
          up_lost = e.up_lost;
          down_lost = e.down_lost;
          ctrl_lost;
          peer_answering = e.peer_answering;
          master_silent = e.master_silent;
        }

  let verdict t sw = infer (observation t sw)

  let sweep t =
    Ids.Switch_id.Tbl.fold
      (fun sw _ acc ->
        match verdict t sw with Healthy -> acc | v -> (sw, v) :: acc)
      t.entries []
    |> List.sort (fun (a, _) (b, _) -> Ids.Switch_id.compare a b)
end
