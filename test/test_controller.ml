(* Tests for lazyctrl.controller: C-LIB, failure inference and monitor,
   and the central controller driven through a recording environment. *)

open Lazyctrl_net
open Lazyctrl_sim
open Lazyctrl_graph
open Lazyctrl_openflow
open Lazyctrl_switch
open Lazyctrl_controller
module Prng = Lazyctrl_util.Prng

let check = Alcotest.check
let sid = Ids.Switch_id.of_int
let hid = Ids.Host_id.of_int
let tid = Ids.Tenant_id.of_int
let host ?(tenant = 0) i = Host.make ~id:(hid i) ~tenant:(tid tenant)
let key_of (h : Host.t) : Proto.host_key = { mac = h.mac; ip = h.ip; tenant = h.tenant }

(* --- Clib -------------------------------------------------------------------- *)

let test_clib_apply_and_locate () =
  let c = Clib.create () in
  Clib.apply_delta c
    { Proto.origin = sid 1; added = [ key_of (host 1); key_of (host 2) ]; removed = []; full = false };
  check Alcotest.int "entries" 2 (Clib.n_entries c);
  (match Clib.locate_mac c (host 1).Host.mac with
  | Some sw -> check Alcotest.int "located" 1 (Ids.Switch_id.to_int sw)
  | None -> Alcotest.fail "mac not found");
  (match Clib.locate_ip c (host 2).Host.ip with
  | Some (sw, key) ->
      check Alcotest.int "ip located" 1 (Ids.Switch_id.to_int sw);
      check Alcotest.bool "key matches" true (Mac.equal key.Proto.mac (host 2).Host.mac)
  | None -> Alcotest.fail "ip not found");
  check Alcotest.bool "absent" true (Clib.locate_mac c (host 9).Host.mac = None)

let test_clib_removal () =
  let c = Clib.create () in
  Clib.apply_delta c
    { Proto.origin = sid 1; added = [ key_of (host 1) ]; removed = []; full = false };
  Clib.apply_delta c
    { Proto.origin = sid 1; added = []; removed = [ key_of (host 1) ]; full = false };
  check Alcotest.int "empty" 0 (Clib.n_entries c);
  check Alcotest.bool "gone" true (Clib.locate_mac c (host 1).Host.mac = None)

let test_clib_migration () =
  let c = Clib.create () in
  Clib.apply_delta c
    { Proto.origin = sid 1; added = [ key_of (host 1) ]; removed = []; full = false };
  (* Host shows up behind a different switch: newest location wins. *)
  Clib.apply_delta c
    { Proto.origin = sid 2; added = [ key_of (host 1) ]; removed = []; full = false };
  (match Clib.locate_mac c (host 1).Host.mac with
  | Some sw -> check Alcotest.int "moved" 2 (Ids.Switch_id.to_int sw)
  | None -> Alcotest.fail "lost during migration");
  check Alcotest.int "no duplicate" 1 (Clib.n_entries c);
  check Alcotest.int "old row empty" 0 (List.length (Clib.row c (sid 1)));
  (* A stale removal from the old switch must not erase the new entry. *)
  Clib.apply_delta c
    { Proto.origin = sid 1; added = []; removed = [ key_of (host 1) ]; full = false };
  check Alcotest.bool "still present" true (Clib.locate_mac c (host 1).Host.mac <> None)

let test_clib_full_row () =
  let c = Clib.create () in
  Clib.set_row c (sid 1) [ key_of (host 1); key_of (host 2) ];
  Clib.apply_delta c
    { Proto.origin = sid 1; added = [ key_of (host 3) ]; removed = []; full = true };
  (* A full delta replaces the whole row. *)
  check Alcotest.int "row replaced" 1 (List.length (Clib.row c (sid 1)));
  check Alcotest.bool "old entry gone" true (Clib.locate_mac c (host 1).Host.mac = None)

let test_clib_tenants () =
  let c = Clib.create () in
  Clib.set_row c (sid 1) [ key_of (host ~tenant:1 1) ];
  Clib.set_row c (sid 2) [ key_of (host ~tenant:1 2); key_of (host ~tenant:2 3) ];
  check (Alcotest.list Alcotest.int) "tenant presence" [ 1; 2 ]
    (List.map Ids.Switch_id.to_int (Clib.switches_of_tenant c (tid 1)));
  check (Alcotest.list Alcotest.int) "other tenant" [ 2 ]
    (List.map Ids.Switch_id.to_int (Clib.switches_of_tenant c (tid 2)));
  match Clib.tenant_of_mac c (host ~tenant:2 3).Host.mac with
  | Some t -> check Alcotest.int "tenant of mac" 2 (Ids.Tenant_id.to_int t)
  | None -> Alcotest.fail "tenant lookup failed"

(* qcheck: a C-LIB agrees, after every step, with an oracle that sends
   every full delta through [Clib.set_row], so a full delta that
   [apply_delta] skips would have rebuilt exactly the same indexes. *)
type clib_step =
  | Full of int * int list  (** switch, hosts: sorted by MAC, repeats kept *)
  | Same_row of int  (** the switch's row as the C-LIB holds it *)
  | Dup_row of int  (** that row with its last key replaced by its first *)
  | Incr of int * int list * int list  (** switch, added, removed *)

(* Eight hosts in two tenants; host 7 takes host 3's IP. Key 8 is host
   0's MAC and IP re-announced under tenant 1. *)
let clib_keys =
  let k i = key_of (host ~tenant:(i mod 2) i) in
  Array.append
    (Array.init 8 (fun i -> if i = 7 then { (k 7) with Proto.ip = (k 3).Proto.ip } else k i))
    [| { (k 0) with Proto.tenant = tid 1 } |]

let pp_clib_step =
  let ints l = String.concat ";" (List.map string_of_int l) in
  function
  | Full (sw, hs) -> Printf.sprintf "full %d [%s]" sw (ints hs)
  | Same_row sw -> Printf.sprintf "same-row %d" sw
  | Dup_row sw -> Printf.sprintf "dup-row %d" sw
  | Incr (sw, a, r) -> Printf.sprintf "incr %d +[%s] -[%s]" sw (ints a) (ints r)

let gen_clib_steps =
  let open QCheck2.Gen in
  let sw = int_range 1 3 in
  let hosts = list_size (int_range 0 5) (int_range 0 (Array.length clib_keys - 1)) in
  list_size (int_range 1 40)
    (frequency
       [
         (3, map2 (fun s hs -> Full (s, hs)) sw hosts);
         (4, map (fun s -> Same_row s) sw);
         (1, map (fun s -> Dup_row s) sw);
         (4, map3 (fun s a r -> Incr (s, a, r)) sw hosts hosts);
       ])

let clib_matches_rebuilding_oracle steps =
  let subject = Clib.create () and oracle = Clib.create () in
  let by_mac = List.stable_sort (fun (a : Proto.host_key) b -> Mac.compare a.mac b.mac) in
  let full sw keys =
    Clib.apply_delta subject { Proto.origin = sid sw; added = keys; removed = []; full = true };
    Clib.set_row oracle (sid sw) keys
  in
  let step = function
    | Full (sw, hs) -> full sw (by_mac (List.map (Array.get clib_keys) hs))
    | Same_row sw -> full sw (Clib.row subject (sid sw))
    | Dup_row sw -> (
        match Clib.row subject (sid sw) with
        | first :: _ :: _ as row ->
            full sw (by_mac (first :: List.rev (List.tl (List.rev row))))
        | _ -> ())
    | Incr (sw, a, r) ->
        let d =
          {
            Proto.origin = sid sw;
            added = List.map (Array.get clib_keys) a;
            removed = List.map (Array.get clib_keys) r;
            full = false;
          }
        in
        Clib.apply_delta subject d;
        Clib.apply_delta oracle d
  in
  let same_keys = List.equal Proto.host_key_equal in
  let same_sw = Option.equal Ids.Switch_id.equal in
  let agree () =
    Int.equal (Clib.n_entries subject) (Clib.n_entries oracle)
    && List.for_all
         (fun sw -> same_keys (Clib.row subject (sid sw)) (Clib.row oracle (sid sw)))
         [ 1; 2; 3 ]
    && List.for_all
         (fun t ->
           List.equal Ids.Switch_id.equal
             (Clib.switches_of_tenant subject (tid t))
             (Clib.switches_of_tenant oracle (tid t)))
         [ 0; 1 ]
    && Array.for_all
         (fun (k : Proto.host_key) ->
           same_sw (Clib.locate_mac subject k.mac) (Clib.locate_mac oracle k.mac)
           && Option.equal Ids.Tenant_id.equal
                (Clib.tenant_of_mac subject k.mac)
                (Clib.tenant_of_mac oracle k.mac)
           && Option.equal
                (fun (a, ka) (b, kb) -> Ids.Switch_id.equal a b && Proto.host_key_equal ka kb)
                (Clib.locate_ip subject k.ip) (Clib.locate_ip oracle k.ip))
         clib_keys
  in
  List.for_all
    (fun s ->
      step s;
      agree ())
    steps

let test_clib_skip_exact =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300
       ~name:"qcheck: full rows agree with a set_row oracle"
       ~print:(fun steps -> String.concat ", " (List.map pp_clib_step steps))
       gen_clib_steps clib_matches_rebuilding_oracle)

(* --- Failover inference (Table I, exhaustive) ----------------------------------- *)

let verdict_t = Alcotest.testable Failover.pp_verdict Failover.verdict_equal

(* All 2^3 single-spoke observation patterns with the exact Table I
   verdict, including the three combinations the paper's table leaves
   unlabelled (Ambiguous).  Columns: keep-alive lost upstream, lost
   downstream, echo lost. *)
let table1 =
  [
    (false, false, false, Failover.Healthy);
    (false, false, true, Failover.Control_link_failure);
    (true, false, false, Failover.Peer_link_up_failure);
    (false, true, false, Failover.Peer_link_down_failure);
    (true, true, true, Failover.Switch_failure);
    (true, true, false, Failover.Ambiguous);
    (true, false, true, Failover.Ambiguous);
    (false, true, true, Failover.Ambiguous);
  ]

let obs ?(peer = false) ?(master = false) up_lost down_lost ctrl_lost =
  {
    Failover.up_lost;
    down_lost;
    ctrl_lost;
    peer_answering = peer;
    master_silent = master;
  }

let test_infer_table1 () =
  check Alcotest.int "all 8 patterns covered" 8
    (List.length (List.sort_uniq compare (List.map (fun (u, d, c, _) -> (u, d, c)) table1)));
  List.iter
    (fun (up_lost, down_lost, ctrl_lost, expected) ->
      let label =
        Printf.sprintf "up_lost=%b down_lost=%b ctrl_lost=%b" up_lost down_lost ctrl_lost
      in
      check verdict_t label expected
        (Failover.infer (obs up_lost down_lost ctrl_lost)))
    table1

(* The cluster extension, exhaustive over the two new axes: a second
   controller spoke still answering (peer_answering) splits a lost
   master echo into controller-death vs control-link-death — including
   the patterns the single-spoke table could only call Ambiguous (or,
   for the triple loss, Switch_failure) — while every observation
   without that evidence reduces to the 3-bit table above. *)
let test_infer_second_spoke () =
  let bools = [ false; true ] in
  List.iter
    (fun u ->
      List.iter
        (fun d ->
          List.iter
            (fun c ->
              List.iter
                (fun p ->
                  List.iter
                    (fun m ->
                      let base =
                        List.find_map
                          (fun (u', d', c', v) ->
                            if u = u' && d = d' && c = c' then Some v else None)
                          table1
                        |> Option.get
                      in
                      let expected =
                        if p && c then
                          if m then Failover.Controller_failure
                          else Failover.Control_link_failure
                        else base
                      in
                      let label =
                        Printf.sprintf "u=%b d=%b c=%b peer=%b master=%b" u d
                          c p m
                      in
                      check verdict_t label expected
                        (Failover.infer (obs ~peer:p ~master:m u d c)))
                    bools)
                bools)
            bools)
        bools)
    bools;
  (* The headline case the extension exists for: echo lost, switch
     provably alive, master silent on the coordination plane. *)
  check verdict_t "my controller died" Failover.Controller_failure
    (Failover.infer (obs ~peer:true ~master:true false false true));
  check verdict_t "only the control link died" Failover.Control_link_failure
    (Failover.infer (obs ~peer:true ~master:false true false true))

let test_monitor_echo_timeout () =
  let e = Engine.create () in
  let m = Failover.Monitor.create e ~echo_timeout:(Time.of_sec 10) in
  Failover.Monitor.register m (sid 1);
  Failover.Monitor.echo_sent m (sid 1);
  ignore (Engine.schedule e ~after:(Time.of_sec 5) (fun () -> ()));
  Engine.run e;
  check Alcotest.bool "not yet" true (Failover.Monitor.verdict m (sid 1) = Failover.Healthy);
  ignore (Engine.schedule e ~after:(Time.of_sec 6) (fun () -> ()));
  Engine.run e;
  check Alcotest.bool "timed out" true
    (Failover.Monitor.verdict m (sid 1) = Failover.Control_link_failure);
  Failover.Monitor.echo_received m (sid 1);
  check Alcotest.bool "recovered" true
    (Failover.Monitor.verdict m (sid 1) = Failover.Healthy)

let test_monitor_ring_alarms () =
  let e = Engine.create () in
  let m = Failover.Monitor.create e ~echo_timeout:(Time.of_sec 10) in
  Failover.Monitor.register m (sid 1);
  Failover.Monitor.ring_alarm m ~missing:(sid 1) ~direction:`Up;
  check Alcotest.bool "peer up" true
    (Failover.Monitor.verdict m (sid 1) = Failover.Peer_link_up_failure);
  Failover.Monitor.ring_alarm m ~missing:(sid 1) ~direction:`Down;
  check Alcotest.bool "ambiguous without ctrl" true
    (Failover.Monitor.verdict m (sid 1) = Failover.Ambiguous);
  check Alcotest.int "sweep finds it" 1 (List.length (Failover.Monitor.sweep m));
  Failover.Monitor.ring_recovered m (sid 1);
  check Alcotest.int "sweep clean" 0 (List.length (Failover.Monitor.sweep m));
  (* Alarms about unregistered switches are ignored. *)
  Failover.Monitor.ring_alarm m ~missing:(sid 9) ~direction:`Up

(* A switch migrating between controllers is unregistered at the old
   master and registered at the new one. An echo pending from before the
   migration must not leak into the new registration, or every migration
   under load would read as a control-link failure. *)
let test_monitor_pending_across_migration () =
  let e = Engine.create () in
  let m = Failover.Monitor.create e ~echo_timeout:(Time.of_sec 10) in
  Failover.Monitor.register m (sid 1);
  Failover.Monitor.echo_sent m (sid 1);
  ignore (Engine.schedule e ~after:(Time.of_sec 6) (fun () -> ()));
  Engine.run e;
  Failover.Monitor.unregister m (sid 1);
  check Alcotest.bool "untracked while migrated" false
    (List.exists (Ids.Switch_id.equal (sid 1)) (Failover.Monitor.registered m));
  Failover.Monitor.register m (sid 1);
  ignore (Engine.schedule e ~after:(Time.of_sec 6) (fun () -> ()));
  Engine.run e;
  (* 12 s after the pre-migration echo: a leaked pending echo would have
     timed out by now. *)
  check verdict_t "fresh after migration" Failover.Healthy
    (Failover.Monitor.verdict m (sid 1));
  Failover.Monitor.echo_sent m (sid 1);
  ignore (Engine.schedule e ~after:(Time.of_sec 11) (fun () -> ()));
  Engine.run e;
  check verdict_t "new echo cycle still times out" Failover.Control_link_failure
    (Failover.Monitor.verdict m (sid 1))

(* The timeout is strict: a reply that would arrive exactly at
   [echo_timeout] is still on time, one tick later it is lost. And a
   re-sent echo while one is already pending must not restart the window
   (that would let a periodic echo timer mask a dead link forever). *)
let test_monitor_loss_exactly_at_timeout () =
  let e = Engine.create () in
  let m = Failover.Monitor.create e ~echo_timeout:(Time.of_sec 10) in
  Failover.Monitor.register m (sid 1);
  Failover.Monitor.echo_sent m (sid 1);
  ignore (Engine.schedule e ~after:(Time.of_sec 10) (fun () -> ()));
  Engine.run e;
  check verdict_t "exactly at the timeout is not yet lost" Failover.Healthy
    (Failover.Monitor.verdict m (sid 1));
  Failover.Monitor.echo_sent m (sid 1);
  ignore (Engine.schedule e ~after:(Time.of_us 1) (fun () -> ()));
  Engine.run e;
  check verdict_t "one tick past the timeout is" Failover.Control_link_failure
    (Failover.Monitor.verdict m (sid 1));
  Failover.Monitor.echo_received m (sid 1);
  check verdict_t "a reply clears it" Failover.Healthy
    (Failover.Monitor.verdict m (sid 1))

(* Evidence streams race in practice (ring alarms, peer-spoke replies and
   coordination silence arrive over independent channels); the verdict
   must depend on the evidence set, never on arrival order. *)
let test_monitor_verdict_order_independent () =
  let apply m sw = function
    | 0 -> Failover.Monitor.echo_sent m sw
    | 1 -> Failover.Monitor.peer_evidence m sw ~answering:true
    | _ -> Failover.Monitor.master_evidence m sw ~silent:true
  in
  let orders =
    [ [ 0; 1; 2 ]; [ 0; 2; 1 ]; [ 1; 0; 2 ]; [ 1; 2; 0 ]; [ 2; 0; 1 ]; [ 2; 1; 0 ] ]
  in
  List.iter
    (fun order ->
      let e = Engine.create () in
      let m = Failover.Monitor.create e ~echo_timeout:(Time.of_sec 10) in
      Failover.Monitor.register m (sid 1);
      List.iter (apply m (sid 1)) order;
      ignore (Engine.schedule e ~after:(Time.of_sec 11) (fun () -> ()));
      Engine.run e;
      check Alcotest.bool "same verdict for every arrival order" true
        (Failover.verdict_equal Failover.Controller_failure
           (Failover.Monitor.verdict m (sid 1))))
    orders

(* --- Controller ------------------------------------------------------------------ *)

type recorded = {
  engine : Engine.t;
  sent : (Ids.Switch_id.t * Controller.msg) list ref;
  reboots : Ids.Switch_id.t list ref;
  relays : (Ids.Switch_id.t * Ids.Switch_id.t option) list ref;
}

(* Strip the reliable-transport framing from a recorded (switch, message)
   list: drop acks and dedup retransmitted copies by (switch, epoch, seq). *)
let unwrap_sent entries =
  let seen = Hashtbl.create 16 in
  List.filter_map
    (fun (sw, m) ->
      match m with
      | Message.Extension (Proto.Ack _) -> None
      | Message.Extension (Proto.Seq { epoch; seq; payload }) ->
          if Hashtbl.mem seen (sw, epoch, seq) then None
          else begin
            Hashtbl.add seen (sw, epoch, seq) ();
            Some (sw, payload)
          end
      | m -> Some (sw, m))
    entries

let make_controller ?(n_switches = 6) ?(config = Controller.default_config) () =
  let engine = Engine.create () in
  let sent = ref [] and reboots = ref [] and relays = ref [] in
  let env =
    {
      Controller.engine;
      send_switch = (fun sw m -> sent := (sw, m) :: !sent);
      reboot_switch = (fun sw -> reboots := sw :: !reboots);
      request_relay = (fun sw ~via -> relays := (sw, via) :: !relays);
      rng = Prng.create 9;
    }
  in
  (Controller.create env config ~n_switches, { engine; sent; reboots; relays })

(* Two 3-switch communities. *)
let intensity_6 () =
  Wgraph.of_edges ~n:6
    [ (0, 1, 10.0); (1, 2, 10.0); (0, 2, 10.0); (3, 4, 10.0); (4, 5, 10.0); (3, 5, 10.0); (0, 3, 0.2) ]

let config_small =
  { Controller.default_config with Controller.group_size_limit = 3 }

let test_bootstrap_pushes_groups () =
  let c, r = make_controller ~config:config_small () in
  Controller.bootstrap c ~intensity:(intensity_6 ());
  (match Controller.grouping c with
  | Some g ->
      check Alcotest.int "two groups" 2 (Lazyctrl_grouping.Grouping.n_groups g);
      check Alcotest.bool "communities intact" true
        (Lazyctrl_grouping.Grouping.same_group g (sid 0) (sid 1)
        && Lazyctrl_grouping.Grouping.same_group g (sid 3) (sid 5))
  | None -> Alcotest.fail "no grouping");
  let sent = unwrap_sent !(r.sent) in
  let configs =
    List.filter
      (function _, Message.Extension (Proto.Group_config _) -> true | _ -> false)
      sent
  in
  check Alcotest.int "config per switch" 6 (List.length configs);
  let syncs =
    List.filter
      (function _, Message.Extension (Proto.Group_sync _) -> true | _ -> false)
      sent
  in
  (* The C-LIB is empty at bootstrap, so no (clobbering) sync is sent;
     members introduce themselves with adoption-time full adverts. *)
  check Alcotest.int "no empty sync at bootstrap" 0 (List.length syncs);
  (match Controller.group_config_of c (sid 0) with
  | Some cfg ->
      check Alcotest.int "members" 3 (List.length cfg.Proto.members);
      check Alcotest.bool "designated is member" true
        (List.exists (Ids.Switch_id.equal cfg.Proto.designated) cfg.Proto.members)
  | None -> Alcotest.fail "no config for sw0")

let test_packet_in_installs_intergroup_rule () =
  let c, r = make_controller ~config:config_small () in
  Controller.bootstrap c ~intensity:(intensity_6 ());
  (* Teach the C-LIB where h2 lives. *)
  Controller.handle_message c ~from:(sid 3)
    (Message.Extension
       (Proto.State_report
          { group = Ids.Group_id.of_int 1;
            deltas = [ { Proto.origin = sid 4; added = [ key_of (host 2) ]; removed = []; full = false } ];
            intensity = [] }));
  r.sent := [];
  let pkt = Packet.data ~src:(host 1) ~dst:(host 2) ~length:10 () in
  Controller.handle_message c ~from:(sid 0)
    (Message.Packet_in
       { packet = pkt; reason = Message.No_match; buffer_id = Message.no_buffer });
  let to_sw0 = List.filter (fun (sw, _) -> Ids.Switch_id.equal sw (sid 0)) !(r.sent) in
  let flow_mods =
    List.filter (function _, Message.Flow_mod _ -> true | _ -> false) to_sw0
  in
  let packet_outs =
    List.filter_map
      (function _, Message.Packet_out { actions; _ } -> Some actions | _ -> None)
      to_sw0
  in
  check Alcotest.int "one rule" 1 (List.length flow_mods);
  (match packet_outs with
  | [ [ Action.Encap ip ] ] ->
      check Alcotest.string "encap to owner's switch" "172.16.0.4" (Ipv4.to_string ip)
  | _ -> Alcotest.fail "expected encap packet-out");
  let s = Controller.stats c in
  check Alcotest.int "request counted" 2 s.Controller.requests;
  check Alcotest.int "packet_in counted" 1 s.Controller.packet_ins

let test_packet_in_unknown_floods_tenant () =
  let c, r = make_controller ~config:config_small () in
  Controller.bootstrap c ~intensity:(intensity_6 ());
  (* Tenant 5 present on switches 1 and 4; destination unknown. *)
  Controller.handle_message c ~from:(sid 1)
    (Message.Extension
       (Proto.State_report
          { group = Ids.Group_id.of_int 0;
            deltas = [ { Proto.origin = sid 1; added = [ key_of (host ~tenant:5 1) ]; removed = []; full = false };
                       { Proto.origin = sid 4; added = [ key_of (host ~tenant:5 3) ]; removed = []; full = false } ];
            intensity = [] }));
  r.sent := [];
  let pkt = Packet.data ~src:(host ~tenant:5 1) ~dst:(host ~tenant:5 99) ~length:10 () in
  Controller.handle_message c ~from:(sid 1)
    (Message.Packet_in
       { packet = pkt; reason = Message.No_match; buffer_id = Message.no_buffer });
  (* Flood_local Packet_out to tenant switches except the ingress. *)
  let floods =
    List.filter_map
      (function
        | sw, Message.Packet_out { actions = [ Action.Flood_local ]; _ } -> Some sw
        | _ -> None)
      !(r.sent)
  in
  check (Alcotest.list Alcotest.int) "tenant-scoped flood" [ 4 ]
    (List.map Ids.Switch_id.to_int floods);
  check Alcotest.int "flood counted" 1 (Controller.stats c).Controller.floods

let test_arp_escalation_relay () =
  let c, r = make_controller ~config:config_small () in
  Controller.bootstrap c ~intensity:(intensity_6 ());
  (* Target host known to live behind sw4 (group 1). *)
  Controller.handle_message c ~from:(sid 3)
    (Message.Extension
       (Proto.State_report
          { group = Ids.Group_id.of_int 1;
            deltas = [ { Proto.origin = sid 4; added = [ key_of (host 2) ]; removed = []; full = false } ];
            intensity = [] }));
  r.sent := [];
  let request = Packet.arp_request ~sender:(host 1) ~target_ip:(host 2).Host.ip () in
  Controller.handle_message c ~from:(sid 0)
    (Message.Extension (Proto.Arp_escalate { origin = sid 0; packet = request }));
  (* The C-LIB pinpoints the owner: the request is handed straight to its
     switch for a local flood (robust even when the escalation came from
     inside the owner's own group). *)
  let handed =
    List.filter_map
      (function
        | sw, Message.Packet_out { actions = [ Action.Flood_local ]; _ } -> Some sw
        | _ -> None)
      !(r.sent)
  in
  check (Alcotest.list Alcotest.int) "handed to the owner's switch" [ 4 ]
    (List.map Ids.Switch_id.to_int handed);
  check Alcotest.int "escalation counted" 1
    (Controller.stats c).Controller.arp_escalations

let test_state_report_feeds_matrix () =
  let c, _ = make_controller ~config:config_small () in
  Controller.bootstrap c ~intensity:(intensity_6 ());
  Controller.handle_message c ~from:(sid 0)
    (Message.Extension
       (Proto.State_report
          { group = Ids.Group_id.of_int 0; deltas = [];
            intensity = [ (sid 0, sid 5, 42) ] }));
  let g = Controller.current_intensity c in
  check Alcotest.bool "pair recorded" true
    (Wgraph.(total_edge_weight (fst (induced g [| 0; 5 |]))) >= 42.0)

let test_relay_unwrapped () =
  let c, _ = make_controller ~config:config_small () in
  Controller.bootstrap c ~intensity:(intensity_6 ());
  let inner =
    Message.Extension
      (Proto.State_report
         { group = Ids.Group_id.of_int 0; deltas = [];
           intensity = [ (sid 1, sid 2, 7) ] })
  in
  Controller.handle_message c ~from:(sid 1)
    (Message.Extension (Proto.Relay { origin = sid 0; boxed = inner }));
  check Alcotest.int "inner handled" 1 (Controller.stats c).Controller.state_reports

let test_ring_alarm_and_failover_actions () =
  let config =
    { config_small with Controller.daemon_period = Time.of_sec 5; echo_timeout = Time.of_sec 10 }
  in
  let c, r = make_controller ~config () in
  Controller.bootstrap c ~intensity:(intensity_6 ());
  let handled = ref [] in
  Controller.set_failover_hook c (fun sw v -> handled := (sw, v) :: !handled);
  (* A stable single-direction loss is a peer-link failure. *)
  Controller.handle_message c ~from:(sid 1)
    (Message.Extension
       (Proto.Ring_alarm { observer = sid 1; missing = sid 0; direction = `Up }));
  Engine.run ~until:(Time.of_sec 6) r.engine;
  (match !handled with
  | [ (sw, Failover.Peer_link_up_failure) ] ->
      check Alcotest.int "about sw0" 0 (Ids.Switch_id.to_int sw)
  | _ -> Alcotest.fail "expected peer-link verdict at the daemon tick");
  check Alcotest.int "alarm counted" 1 (Controller.stats c).Controller.ring_alarms

let test_echo_timeout_triggers_relay () =
  let config =
    {
      config_small with
      Controller.daemon_period = Time.of_sec 5;
      echo_period = Time.of_sec 5;
      echo_timeout = Time.of_sec 8;
    }
  in
  let c, r = make_controller ~config () in
  Controller.bootstrap c ~intensity:(intensity_6 ());
  (* Let echoes go unanswered except for switches other than 2. *)
  let answer_all_except sw_dead =
    List.iter
      (fun (sw, m) ->
        match m with
        | Message.Echo_request n when not (Ids.Switch_id.equal sw sw_dead) ->
            Controller.handle_message c ~from:sw (Message.Echo_reply n)
        | _ -> ())
      !(r.sent);
    r.sent := []
  in
  Engine.run ~until:(Time.of_sec 6) r.engine;
  answer_all_except (sid 2);
  Engine.run ~until:(Time.of_sec 12) r.engine;
  answer_all_except (sid 2);
  Engine.run ~until:(Time.of_sec 16) r.engine;
  answer_all_except (sid 2);
  Engine.run ~until:(Time.of_sec 20) r.engine;
  (match
     List.find_opt (fun (sw, _) -> Ids.Switch_id.equal sw (sid 2)) !(r.relays)
   with
  | Some (_, Some via) ->
      (* The relay goes through one of sw2's ring neighbours. *)
      check Alcotest.bool "via a ring neighbour" true (Ids.Switch_id.to_int via <> 2)
  | Some (_, None) -> Alcotest.fail "relay cleared unexpectedly"
  | None -> Alcotest.fail "expected a relay request for sw2");
  check Alcotest.bool "no reboot for control-link failure" true (!(r.reboots) = [])

let test_path_failure_installs_detour () =
  let c, r = make_controller ~config:config_small () in
  Controller.bootstrap c ~intensity:(intensity_6 ());
  (* dst sw4 hosts h2; a healthy member of its group acts as the detour. *)
  Controller.handle_message c ~from:(sid 3)
    (Message.Extension
       (Proto.State_report
          { group = Ids.Group_id.of_int 1;
            deltas = [ { Proto.origin = sid 4; added = [ key_of (host 2) ]; removed = []; full = false } ];
            intensity = [] }));
  r.sent := [];
  Controller.notify_path_failure c ~src:(sid 0) ~dst:(sid 4);
  let detours =
    List.rev
      (List.filter_map
         (function
           | sw, Message.Flow_mod (Message.Add e) -> Some (sw, e.Flow_table.actions)
           | _ -> None)
         !(r.sent))
  in
  match detours with
  | [ (sw1, [ Action.Encap hop1 ]); (sw2, [ Action.Encap hop2 ]) ] ->
      (* First segment on the source, second on the healthy via member. *)
      check Alcotest.int "installed on src" 0 (Ids.Switch_id.to_int sw1);
      check Alcotest.bool "first hop avoids dst" true
        (Ipv4.to_string hop1 <> "172.16.0.4");
      check Alcotest.bool "via completes to dst" true
        (Ids.Switch_id.to_int sw2 <> 0 && Ipv4.to_string hop2 = "172.16.0.4")
  | _ -> Alcotest.fail "expected a two-segment detour"

let () =
  Alcotest.run "controller"
    [
      ( "clib",
        [
          Alcotest.test_case "apply and locate" `Quick test_clib_apply_and_locate;
          Alcotest.test_case "removal" `Quick test_clib_removal;
          Alcotest.test_case "migration" `Quick test_clib_migration;
          Alcotest.test_case "full row" `Quick test_clib_full_row;
          Alcotest.test_case "tenants" `Quick test_clib_tenants;
          test_clib_skip_exact;
        ] );
      ( "failover",
        [
          Alcotest.test_case "Table I exhaustive" `Quick test_infer_table1;
          Alcotest.test_case "second spoke splits lost echo" `Quick
            test_infer_second_spoke;
          Alcotest.test_case "echo timeout" `Quick test_monitor_echo_timeout;
          Alcotest.test_case "ring alarms" `Quick test_monitor_ring_alarms;
          Alcotest.test_case "pending echo across migration" `Quick
            test_monitor_pending_across_migration;
          Alcotest.test_case "loss exactly at echo_timeout" `Quick
            test_monitor_loss_exactly_at_timeout;
          Alcotest.test_case "verdict order-independence" `Quick
            test_monitor_verdict_order_independent;
        ] );
      ( "controller",
        [
          Alcotest.test_case "bootstrap pushes groups" `Quick test_bootstrap_pushes_groups;
          Alcotest.test_case "inter-group rule" `Quick test_packet_in_installs_intergroup_rule;
          Alcotest.test_case "unknown dst floods tenant" `Quick test_packet_in_unknown_floods_tenant;
          Alcotest.test_case "ARP relay" `Quick test_arp_escalation_relay;
          Alcotest.test_case "intensity matrix" `Quick test_state_report_feeds_matrix;
          Alcotest.test_case "relay unwrapped" `Quick test_relay_unwrapped;
          Alcotest.test_case "ring alarm handling" `Quick test_ring_alarm_and_failover_actions;
          Alcotest.test_case "echo timeout relay" `Quick test_echo_timeout_triggers_relay;
          Alcotest.test_case "detour routing" `Quick test_path_failure_installs_detour;
        ] );
    ]
