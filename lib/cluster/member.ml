open Lazyctrl_net
open Lazyctrl_sim
open Lazyctrl_openflow
open Lazyctrl_switch
open Lazyctrl_controller
module Det = Lazyctrl_util.Det
module Sid = Ids.Switch_id
module Gid = Ids.Group_id

type config = {
  hello_period : Time.t;
  hello_timeout : Time.t;
  probe_window : Time.t;
  migrate_period : Time.t;
  migrate_gap : int;
  migrate_cooldown : Time.t;
  retrans : Reliable.config;
}

let default_config =
  {
    hello_period = Time.of_sec 1;
    hello_timeout = Time.of_ms 3_500;
    probe_window = Time.of_ms 1_500;
    migrate_period = Time.of_sec 5;
    migrate_gap = 2;
    migrate_cooldown = Time.of_sec 20;
    retrans = Reliable.default_config;
  }

type env = {
  engine : Engine.t;
  self : int;
  n_members : int;
  controller : Controller.t;
  send_coord : int -> Coord.t -> bool;
  send_rehome : Ids.Switch_id.t -> term:int -> int;
  probe_switch : Ids.Switch_id.t -> unit;
}

type stats = {
  hellos_sent : int;
  rehomes_sent : int;
  adoptions : int;
  releases : int;
  handoffs_offered : int;
  peer_deaths : int;
  peer_revivals : int;
  controller_failure_verdicts : int;
}

let stats_zero =
  {
    hellos_sent = 0;
    rehomes_sent = 0;
    adoptions = 0;
    releases = 0;
    handoffs_offered = 0;
    peer_deaths = 0;
    peer_revivals = 0;
    controller_failure_verdicts = 0;
  }

let stats_add a b =
  {
    hellos_sent = a.hellos_sent + b.hellos_sent;
    rehomes_sent = a.rehomes_sent + b.rehomes_sent;
    adoptions = a.adoptions + b.adoptions;
    releases = a.releases + b.releases;
    handoffs_offered = a.handoffs_offered + b.handoffs_offered;
    peer_deaths = a.peer_deaths + b.peer_deaths;
    peer_revivals = a.peer_revivals + b.peer_revivals;
    controller_failure_verdicts =
      a.controller_failure_verdicts + b.controller_failure_verdicts;
  }

type peer = {
  mutable last_seen : Time.t;
  mutable p_load : int;
  mutable p_alive : bool;
}

type probe = {
  pr_group : Gid.t;
  pr_members : Sid.t list;
  pr_term : int;  (** the orphaned claim's term when the probe started *)
  mutable pr_replied : Sid.Set.t;
}

type t = {
  env : env;
  config : config;
  view : (int, Coord.view_entry) Hashtbl.t;  (* keyed by Gid.to_int *)
  peers : peer array;  (* self slot unused *)
  sessions : Coord.t Reliable.t option array;
  probes : (int, probe) Hashtbl.t;
  mutable timers : Engine.event_id list;
  mutable running : bool;
  mutable last_migration : Time.t;
  mutable s_hellos : int;
  mutable s_rehomes : int;
  mutable s_adoptions : int;
  mutable s_releases : int;
  mutable s_handoffs : int;
  mutable s_deaths : int;
  mutable s_revivals : int;
  mutable s_ctrl_verdicts : int;
}

let now t = Engine.now t.env.engine
let is_running t = t.running

let create env config =
  {
    env;
    config;
    view = Hashtbl.create 16;
    peers =
      Array.init env.n_members (fun _ ->
          { last_seen = Time.zero; p_load = 0; p_alive = true });
    sessions = Array.make env.n_members None;
    probes = Hashtbl.create 8;
    timers = [];
    running = false;
    last_migration = Time.zero;
    s_hellos = 0;
    s_rehomes = 0;
    s_adoptions = 0;
    s_releases = 0;
    s_handoffs = 0;
    s_deaths = 0;
    s_revivals = 0;
    s_ctrl_verdicts = 0;
  }

let session t k =
  match t.sessions.(k) with
  | Some s -> s
  | None ->
      let s =
        Reliable.create t.env.engine t.config.retrans
          ~send_data:(fun ~epoch ~seq payload ->
            ignore (t.env.send_coord k (Coord.Seq { epoch; seq; payload })))
          ~send_ack:(fun ~epoch ~cum ->
            ignore (t.env.send_coord k (Coord.Ack { epoch; cum })))
          ~name:(Printf.sprintf "coord-%d-%d" t.env.self k)
          ()
      in
      t.sessions.(k) <- Some s;
      s

let send_reliable t k msg = Reliable.send (session t k) msg

let view t = List.map snd (Det.bindings_sorted ~cmp:Int.compare t.view)

let owned t =
  List.filter_map
    (fun (e : Coord.view_entry) ->
      if e.v_owner = t.env.self then Some (e.v_group, e.v_members) else None)
    (view t)

let alive_peers t =
  let out = ref [] in
  for k = t.env.n_members - 1 downto 0 do
    if k <> t.env.self && t.peers.(k).p_alive then out := k :: !out
  done;
  !out

(* Owned-group counts derived from the shared view — every member computes
   the same numbers, which makes successor choice consistent without any
   extra agreement round. *)
let load_table t =
  let load = Array.make t.env.n_members 0 in
  Det.iter_sorted ~cmp:Int.compare
    (fun _ (e : Coord.view_entry) -> load.(e.v_owner) <- load.(e.v_owner) + 1)
    t.view;
  load

let my_load t = (load_table t).(t.env.self)

(* The next claim term above [base] that is ≡ self (mod n): strictly
   increasing, and no two members can ever produce the same term. *)
let next_term t base =
  let n = t.env.n_members in
  let c = base + 1 in
  c + (((t.env.self - (c mod n)) + n) mod n)

(* Claim a group: pick a fresh term, flip the switches through the
   management plane, then configure them at our controller and announce.
   The Rehome claim and the subsequent Group_config travel the same FIFO
   control channel, so the switch flips masters before the config lands.
   A higher feedback term means the claim lost a race — the winner is
   identified by term mod n and recorded instead. *)
let adopt t ~group ~members ~base_term =
  let term = next_term t base_term in
  let feedback =
    List.fold_left
      (fun acc sw ->
        t.s_rehomes <- t.s_rehomes + 1;
        max acc (t.env.send_rehome sw ~term))
      term members
  in
  let key = Gid.to_int group in
  if feedback > term then
    Hashtbl.replace t.view key
      {
        Coord.v_group = group;
        v_term = feedback;
        v_owner = feedback mod t.env.n_members;
        v_members = members;
      }
  else begin
    Hashtbl.replace t.view key
      {
        Coord.v_group = group;
        v_term = term;
        v_owner = t.env.self;
        v_members = members;
      };
    Controller.adopt_groups t.env.controller ~groups:[ (group, members) ];
    t.s_adoptions <- t.s_adoptions + 1;
    let entry = Hashtbl.find t.view key in
    List.iter
      (fun k -> send_reliable t k (Coord.Claimed { from = t.env.self; entry }))
      (alive_peers t)
  end

(* Fold a peer's claim into the view; strictly higher terms win. Losing a
   group we currently master means releasing it at the controller. *)
let reconcile t (e : Coord.view_entry) =
  let key = Gid.to_int e.Coord.v_group in
  match Hashtbl.find_opt t.view key with
  | Some cur when cur.Coord.v_term >= e.Coord.v_term -> ()
  | cur_opt ->
      (match cur_opt with
      | Some cur
        when cur.Coord.v_owner = t.env.self && e.Coord.v_owner <> t.env.self ->
          ignore (Controller.release_group t.env.controller e.Coord.v_group);
          t.s_releases <- t.s_releases + 1
      | _ -> ());
      Hashtbl.replace t.view key e

(* --- second-spoke probing before failover adoption ----------------------- *)

let note_probe_reply t sw =
  Det.iter_sorted ~cmp:Int.compare
    (fun _ pr ->
      if List.exists (Sid.equal sw) pr.pr_members then
        pr.pr_replied <- Sid.Set.add sw pr.pr_replied)
    t.probes

let conclude_probe t key =
  match Hashtbl.find_opt t.probes key with
  | None -> ()
  | Some pr ->
      Hashtbl.remove t.probes key;
      if t.running then
        match Hashtbl.find_opt t.view key with
        | Some cur
          when cur.Coord.v_term = pr.pr_term
               && cur.Coord.v_owner <> t.env.self
               && not t.peers.(cur.Coord.v_owner).p_alive ->
            (* Extended Table I, per orphaned switch: alive on the second
               spoke + master silent ⟹ Controller_failure (re-home). A
               switch that did not answer may itself be down — it is
               adopted anyway; the new master's monitor takes over its
               reboot-and-resync handling. *)
            List.iter
              (fun sw ->
                let obs =
                  {
                    Failover.up_lost = false;
                    down_lost = false;
                    ctrl_lost = true;
                    peer_answering = Sid.Set.mem sw pr.pr_replied;
                    master_silent = true;
                  }
                in
                if
                  Failover.verdict_equal (Failover.infer obs)
                    Failover.Controller_failure
                then t.s_ctrl_verdicts <- t.s_ctrl_verdicts + 1)
              pr.pr_members;
            adopt t ~group:pr.pr_group ~members:pr.pr_members
              ~base_term:pr.pr_term
        | _ -> () (* claimed by someone else (or revived) meanwhile *)

let start_probe t (e : Coord.view_entry) =
  let key = Gid.to_int e.Coord.v_group in
  if not (Hashtbl.mem t.probes key) then begin
    Hashtbl.replace t.probes key
      {
        pr_group = e.Coord.v_group;
        pr_members = e.Coord.v_members;
        pr_term = e.Coord.v_term;
        pr_replied = Sid.Set.empty;
      };
    List.iter t.env.probe_switch e.Coord.v_members;
    ignore
      (Engine.schedule t.env.engine ~after:t.config.probe_window (fun () ->
           conclude_probe t key))
  end

(* --- periodic work ------------------------------------------------------- *)

(* Groups whose recorded owner is a dead peer: deterministically assign a
   successor (lowest load, then lowest index, over the alive members) and
   probe the ones assigned to us. Runs every hello tick while the owner
   stays dead, so a claim that lost against a winner who then also died
   is retried rather than orphaned forever. *)
let orphan_sweep t =
  let orphans =
    List.filter
      (fun (e : Coord.view_entry) ->
        e.v_owner <> t.env.self && not t.peers.(e.v_owner).p_alive)
      (view t)
  in
  match orphans with
  | [] -> ()
  | orphans -> begin
    let load = load_table t in
    let candidates = t.env.self :: alive_peers t in
    List.iter
      (fun (e : Coord.view_entry) ->
        let successor =
          List.fold_left
            (fun best c ->
              if (load.(c), c) < (load.(best), best) then c else best)
            (List.hd candidates) (List.tl candidates)
        in
        load.(successor) <- load.(successor) + 1;
        if successor = t.env.self then start_probe t e)
      orphans
  end

let peer_down t k =
  let p = t.peers.(k) in
  if p.p_alive then begin
    p.p_alive <- false;
    t.s_deaths <- t.s_deaths + 1
  end

(* A peer came back (reboot or partition heal): it may have missed claims
   and C-LIB gossip arbitrarily. Reset our outgoing session (fresh epoch;
   the stale unacked backlog predates the outage and is superseded by the
   resync), re-send our complete ownership slice reliably, and re-send
   full C-LIB rows for every switch we master. *)
let peer_up t k =
  let p = t.peers.(k) in
  if not p.p_alive then begin
    p.p_alive <- true;
    t.s_revivals <- t.s_revivals + 1;
    (match t.sessions.(k) with Some s -> Reliable.reset s | None -> ());
    let mine =
      List.filter
        (fun (e : Coord.view_entry) -> e.v_owner = t.env.self)
        (view t)
    in
    send_reliable t k (Coord.Owner_view { from = t.env.self; view = mine });
    let clib = Controller.clib t.env.controller in
    List.iter
      (fun (e : Coord.view_entry) ->
        List.iter
          (fun sw ->
            let delta =
              {
                Proto.origin = sw;
                added = Clib.row clib sw;
                removed = [];
                full = true;
              }
            in
            ignore
              (t.env.send_coord k (Coord.Clib_delta { from = t.env.self; delta })))
          e.v_members)
      mine
  end

let hello_tick t =
  if t.running then begin
    let load = my_load t in
    for k = 0 to t.env.n_members - 1 do
      if k <> t.env.self then begin
        t.s_hellos <- t.s_hellos + 1;
        ignore (t.env.send_coord k (Coord.Hello { from = t.env.self; load }))
      end
    done;
    (* Re-announce mastership of every owned switch. Idempotent (switches
       ignore non-greater terms) and self-healing: it re-claims rebooted
       switches, and the term feedback tells us when we silently lost a
       group to a higher claim. *)
    Det.iter_sorted ~cmp:Int.compare
      (fun key (e : Coord.view_entry) ->
        if e.v_owner = t.env.self then begin
          let feedback =
            List.fold_left
              (fun acc sw ->
                t.s_rehomes <- t.s_rehomes + 1;
                max acc (t.env.send_rehome sw ~term:e.v_term))
              e.v_term e.v_members
          in
          if feedback > e.v_term then begin
            ignore (Controller.release_group t.env.controller e.v_group);
            t.s_releases <- t.s_releases + 1;
            Hashtbl.replace t.view key
              {
                e with
                Coord.v_term = feedback;
                v_owner = feedback mod t.env.n_members;
              }
          end
        end)
      t.view;
    (* Death detection, then the orphan sweep over everything dead. *)
    Array.iteri
      (fun k p ->
        if
          k <> t.env.self && p.p_alive
          && Time.(Time.diff (now t) p.last_seen > t.config.hello_timeout)
        then peer_down t k)
      t.peers;
    orphan_sweep t
  end

(* EASM: when our owned-group count exceeds the least-loaded alive peer's
   by the configured gap, offer our highest-numbered group. We keep
   mastering it until the adopter's Claimed lands. *)
let migrate_tick t =
  if t.running then
    match alive_peers t with
    | [] -> ()
    | peers ->
        let load = load_table t in
        let target =
          List.fold_left
            (fun best c ->
              if (load.(c), c) < (load.(best), best) then c else best)
            (List.hd peers) (List.tl peers)
        in
        if
          load.(t.env.self) - load.(target) >= t.config.migrate_gap
          && Time.(
               Time.diff (now t) t.last_migration >= t.config.migrate_cooldown)
        then
          match List.rev (owned t) with
          | [] -> ()
          | (gid, _) :: _ ->
              let entry = Hashtbl.find t.view (Gid.to_int gid) in
              t.last_migration <- now t;
              t.s_handoffs <- t.s_handoffs + 1;
              send_reliable t target
                (Coord.Handoff { from = t.env.self; entry })

(* --- message handling ---------------------------------------------------- *)

let handle_payload t ~from:_ msg =
  match msg with
  | Coord.Hello { from; load } -> t.peers.(from).p_load <- load
  | Coord.Clib_delta { delta; _ } ->
      Controller.apply_remote_delta t.env.controller delta
  | Coord.Arp_relay { origin; packet; _ } ->
      Controller.handle_remote_arp t.env.controller ~origin packet
  | Coord.Owner_view { view; _ } -> List.iter (reconcile t) view
  | Coord.Claimed { entry; _ } -> reconcile t entry
  | Coord.Handoff { entry; _ } ->
      (* Accept the offer: claim above both the offered term and whatever
         we have seen for the group since. *)
      let base =
        match Hashtbl.find_opt t.view (Gid.to_int entry.Coord.v_group) with
        | Some cur -> max cur.Coord.v_term entry.Coord.v_term
        | None -> entry.Coord.v_term
      in
      adopt t ~group:entry.Coord.v_group ~members:entry.Coord.v_members
        ~base_term:base
  | Coord.Fwd _ -> () (* routed by the plane; never reaches the member *)
  | Coord.Seq _ | Coord.Ack _ -> () (* unwrapped in [handle] *)

let handle t ~from msg =
  if t.running then begin
    t.peers.(from).last_seen <- now t;
    peer_up t from;
    match msg with
    | Coord.Seq { epoch; seq; payload } ->
        List.iter
          (handle_payload t ~from)
          (Reliable.handle_data (session t from) ~epoch ~seq payload)
    | Coord.Ack { epoch; cum } -> Reliable.handle_ack (session t from) ~epoch ~cum
    | msg ->
        (* Any arrival is evidence the link is back. *)
        (match t.sessions.(from) with
        | Some s when Reliable.has_given_up s -> Reliable.kick s
        | _ -> ());
        handle_payload t ~from msg
  end

(* --- lifecycle ----------------------------------------------------------- *)

let arm_timers t =
  t.timers <-
    [
      Engine.every t.env.engine ~period:t.config.hello_period (fun () ->
          hello_tick t);
      Engine.every t.env.engine ~period:t.config.migrate_period (fun () ->
          migrate_tick t);
    ]

let start t ~initial =
  List.iter
    (fun (e : Coord.view_entry) ->
      Hashtbl.replace t.view (Gid.to_int e.Coord.v_group) e)
    initial;
  (* Claim our slice before configuring it, so no switch is ever
     configured by a master it has not accepted. *)
  List.iter
    (fun (e : Coord.view_entry) ->
      if e.v_owner = t.env.self then
        List.iter
          (fun sw ->
            t.s_rehomes <- t.s_rehomes + 1;
            ignore (t.env.send_rehome sw ~term:e.v_term))
          e.v_members)
    (view t);
  Controller.bootstrap_shard t.env.controller ~groups:(owned t);
  let tnow = now t in
  Array.iter
    (fun p ->
      p.last_seen <- tnow;
      p.p_alive <- true)
    t.peers;
  t.last_migration <- tnow;
  t.running <- true;
  arm_timers t

let stop t =
  if t.running then begin
    t.running <- false;
    List.iter (Engine.cancel t.env.engine) t.timers;
    t.timers <- [];
    Hashtbl.reset t.probes;
    (* Drop ownership — the survivors claim these groups; the rest of the
       view is kept as (stale) knowledge for a later restart. *)
    List.iter
      (fun (gid, _) ->
        ignore (Controller.release_group t.env.controller gid);
        Hashtbl.remove t.view (Gid.to_int gid))
      (owned t);
    Controller.shutdown t.env.controller
  end

let restart t =
  if not t.running then begin
    t.running <- true;
    (* Fresh epochs on every outgoing session: the backlog predates the
       outage and peers resync us from scratch anyway. *)
    Array.iter
      (function Some s -> Reliable.reset s | None -> ())
      t.sessions;
    let tnow = now t in
    Array.iter
      (fun p ->
        p.last_seen <- tnow;
        p.p_alive <- true;
        p.p_load <- 0)
      t.peers;
    t.last_migration <- tnow;
    (* Re-arms the controller's echo/daemon timers over the (empty) slice. *)
    Controller.bootstrap_shard t.env.controller ~groups:[];
    arm_timers t
  end

let stats t =
  {
    hellos_sent = t.s_hellos;
    rehomes_sent = t.s_rehomes;
    adoptions = t.s_adoptions;
    releases = t.s_releases;
    handoffs_offered = t.s_handoffs;
    peer_deaths = t.s_deaths;
    peer_revivals = t.s_revivals;
    controller_failure_verdicts = t.s_ctrl_verdicts;
  }

let reliable_stats t =
  Array.fold_left
    (fun acc -> function
      | None -> acc
      | Some s -> Reliable.stats_add acc (Reliable.stats s))
    Reliable.stats_zero t.sessions
