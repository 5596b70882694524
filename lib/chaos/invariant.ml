open Lazyctrl_net
open Lazyctrl_switch
open Lazyctrl_controller
open Lazyctrl_core
module Sid = Ids.Switch_id

type report = { name : string; ok : bool; detail : string }

let pp_report fmt r =
  Format.fprintf fmt "[%s] %s%s"
    (if r.ok then "ok" else "FAIL")
    r.name
    (if r.detail = "" then "" else ": " ^ r.detail)

let all_ok = List.for_all (fun r -> r.ok)

let live_switches net =
  let topo = Network.topology net in
  List.filter_map
    (fun sw ->
      match Network.edge_switch net sw with
      | Some es when Edge_switch.is_up es -> Some (sw, es)
      | _ -> None)
    (Lazyctrl_topo.Topology.switches topo)

let sorted_keys keys = List.sort_uniq Proto.host_key_compare keys

(* C-LIB row of every live switch equals that switch's L-FIB. Rows of dead
   switches are stale by definition and skipped. *)
let check_clib controller live =
  let clib = Controller.clib controller in
  let bad =
    List.filter_map
      (fun (sw, es) ->
        let expected = sorted_keys (Lfib.all_keys (Edge_switch.lfib es)) in
        let got = sorted_keys (Clib.row clib sw) in
        if List.equal Proto.host_key_equal expected got then None
        else
          Some
            (Printf.sprintf "sw%d(%d!=%d)" (Sid.to_int sw) (List.length got)
               (List.length expected)))
      live
  in
  {
    name = "clib = union of live L-FIBs";
    ok = List.is_empty bad;
    detail = String.concat " " bad;
  }

(* No Bloom false negative: within a group, every live member's G-FIB must
   name every other live member as a candidate for each of that member's
   hosts. (False positives are expected; false negatives never are.) *)
let check_bloom live =
  let live_up sw = List.exists (fun (s, _) -> Sid.equal s sw) live in
  let missing = ref [] in
  List.iter
    (fun (sw, es) ->
      match Edge_switch.group es with
      | None -> ()
      | Some cfg ->
          List.iter
            (fun peer ->
              if (not (Sid.equal peer sw)) && live_up peer then
                match List.find_opt (fun (s, _) -> Sid.equal s peer) live with
                | None -> ()
                | Some (_, pes) ->
                    let gfib = Edge_switch.gfib es in
                    List.iter
                      (fun (k : Proto.host_key) ->
                        let found_mac =
                          List.exists (Sid.equal peer)
                            (Gfib.candidates_mac gfib k.Proto.mac)
                        and found_ip =
                          List.exists (Sid.equal peer)
                            (Gfib.candidates_ip gfib k.Proto.ip)
                        in
                        if not (found_mac && found_ip) then
                          missing :=
                            Printf.sprintf "sw%d!~sw%d" (Sid.to_int sw)
                              (Sid.to_int peer)
                            :: !missing)
                      (Lfib.all_keys (Edge_switch.lfib pes)))
            cfg.Proto.members)
    live;
  let bad = List.sort_uniq String.compare !missing in
  { name = "no Bloom false negative"; ok = List.is_empty bad; detail = String.concat " " bad }

let check_grouped live =
  let bad =
    List.filter_map
      (fun (sw, es) ->
        if Option.is_none (Edge_switch.group es) then
          Some (Printf.sprintf "sw%d" (Sid.to_int sw))
        else None)
      live
  in
  { name = "every live switch grouped"; ok = List.is_empty bad; detail = String.concat " " bad }

let check_monitor controller =
  let bad =
    List.map
      (fun (sw, v) ->
        Format.asprintf "sw%d:%a" (Sid.to_int sw) Failover.pp_verdict v)
      (Failover.Monitor.sweep (Controller.monitor controller))
  in
  { name = "all monitors healthy"; ok = List.is_empty bad; detail = String.concat " " bad }

let check_exactly_once net =
  let v = (Network.reliability_stats net).Lazyctrl_openflow.Reliable.violations in
  {
    name = "no duplicate delivery";
    ok = v = 0;
    detail = (if v = 0 then "" else Printf.sprintf "%d violations" v);
  }

(* Every live switch's management-plane master is alive, holds a group
   configuration covering the switch, and the switch's own mastership
   term agrees with the management plane. *)
let check_homed net live =
  let alive = Network.alive_controllers net in
  let bad =
    List.filter_map
      (fun (sid, es) ->
        let k = Network.uplink_of net sid in
        let master_alive = List.mem k alive in
        let configured =
          master_alive
          && Option.is_some
               (Controller.group_config_of (Network.controller net k) sid)
        in
        let term_ok = Edge_switch.master_term es = Network.term_of net sid in
        if master_alive && configured && term_ok then None
        else
          Some
            (Format.asprintf "%a@c%d%s%s%s" Sid.pp sid k
               (if master_alive then "" else ":dead-master")
               (if configured || not master_alive then "" else ":unconfigured")
               (if term_ok then "" else ":stale-term")))
      live
  in
  {
    name = "homed";
    ok = List.is_empty bad;
    detail =
      (if List.is_empty bad then
         Printf.sprintf "%d live switches mastered by live, configured members"
           (List.length live)
       else String.concat " " bad);
  }

(* No group is mastered by two alive members. *)
let check_disjoint net =
  let seen = Hashtbl.create 16 in
  let dups = ref [] in
  List.iter
    (fun k ->
      List.iter
        (fun (g, _) ->
          match Hashtbl.find_opt seen (Ids.Group_id.to_int g) with
          | Some j ->
              dups := Format.asprintf "%a@c%d+c%d" Ids.Group_id.pp g j k :: !dups
          | None -> Hashtbl.replace seen (Ids.Group_id.to_int g) k)
        (Lazyctrl_cluster.Member.owned (Network.member net k)))
    (Network.alive_controllers net);
  let dups = List.rev !dups in
  {
    name = "disjoint-ownership";
    ok = List.is_empty dups;
    detail =
      (if List.is_empty dups then
         Printf.sprintf "%d groups, each mastered by one alive member"
           (Hashtbl.length seen)
       else String.concat " " dups);
  }

(* Each list keeps the order its plane's fingerprint has always printed. *)
let check_all net =
  match Network.mode net with
  | Network.Openflow -> []
  | Network.Lazy when Network.controllers net = 1 ->
      let c = Network.controller net 0 and live = live_switches net in
      [
        check_grouped live;
        check_clib c live;
        check_bloom live;
        check_monitor c;
        check_exactly_once net;
      ]
  | Network.Lazy ->
      let live = live_switches net in
      let per_controller =
        List.concat_map
          (fun k ->
            let c = Network.controller net k in
            [ check_clib c live; check_monitor c ])
          (Network.alive_controllers net)
      in
      (check_grouped live :: check_bloom live :: per_controller)
      @ [ check_exactly_once net; check_homed net live; check_disjoint net ]
