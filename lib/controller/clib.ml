open Lazyctrl_net
open Lazyctrl_switch
module Sid = Ids.Switch_id
module Tid = Ids.Tenant_id

type entry = { key : Proto.host_key; at : Sid.t }

type t = {
  by_mac : (int, entry) Hashtbl.t;
  by_ip : (int, entry) Hashtbl.t;
  by_switch : (int, Proto.host_key) Hashtbl.t Sid.Tbl.t;
  tenant_presence : (int, int) Hashtbl.t Tid.Tbl.t; (* tenant -> switch -> host count *)
}

let create () =
  {
    by_mac = Hashtbl.create 1024;
    by_ip = Hashtbl.create 1024;
    by_switch = Sid.Tbl.create 64;
    tenant_presence = Tid.Tbl.create 32;
  }

let switch_table t sw =
  match Sid.Tbl.find_opt t.by_switch sw with
  | Some tbl -> tbl
  | None ->
      let tbl = Hashtbl.create 32 in
      Sid.Tbl.replace t.by_switch sw tbl;
      tbl

let tenant_table t tenant =
  match Tid.Tbl.find_opt t.tenant_presence tenant with
  | Some tbl -> tbl
  | None ->
      let tbl = Hashtbl.create 8 in
      Tid.Tbl.replace t.tenant_presence tenant tbl;
      tbl

let bump_tenant t tenant sw delta =
  let tbl = tenant_table t tenant in
  let sw = Sid.to_int sw in
  let v = delta + Option.value (Hashtbl.find_opt tbl sw) ~default:0 in
  if v <= 0 then Hashtbl.remove tbl sw else Hashtbl.replace tbl sw v

let add t sw (key : Proto.host_key) =
  let mac = Mac.to_int key.mac in
  (* A MAC seen elsewhere moved (VM migration): retract the old entry. *)
  (match Hashtbl.find_opt t.by_mac mac with
  | Some old when not (Sid.equal old.at sw) ->
      Hashtbl.remove (switch_table t old.at) mac;
      bump_tenant t old.key.tenant old.at (-1)
  | _ -> ());
  let fresh = not (Hashtbl.mem (switch_table t sw) mac) in
  Hashtbl.replace t.by_mac mac { key; at = sw };
  Hashtbl.replace t.by_ip (Ipv4.to_int key.ip) { key; at = sw };
  Hashtbl.replace (switch_table t sw) mac key;
  if fresh then bump_tenant t key.tenant sw 1

let remove t sw (key : Proto.host_key) =
  let mac = Mac.to_int key.mac in
  match Hashtbl.find_opt t.by_mac mac with
  | Some entry when Sid.equal entry.at sw ->
      Hashtbl.remove t.by_mac mac;
      Hashtbl.remove t.by_ip (Ipv4.to_int key.ip);
      Hashtbl.remove (switch_table t sw) mac;
      bump_tenant t key.tenant sw (-1)
  | _ -> () (* stale removal, superseded by a newer location *)

let set_row t sw keys =
  (* Removal order is observable through tenant-presence bookkeeping, so
     take the old row in sorted (mac) order. *)
  let tbl = switch_table t sw in
  let old =
    List.map snd (Lazyctrl_util.Det.bindings_sorted ~cmp:Int.compare tbl)
  in
  List.iter (remove t sw) old;
  List.iter (add t sw) keys

let apply_delta t (d : Proto.lfib_delta) =
  if d.full then set_row t d.origin d.added
  else begin
    List.iter (remove t d.origin) d.removed;
    List.iter (add t d.origin) d.added
  end

let row t sw =
  match Sid.Tbl.find_opt t.by_switch sw with
  | None -> []
  | Some tbl ->
      Hashtbl.fold (fun _ k acc -> k :: acc) tbl []
      |> List.sort (fun (a : Proto.host_key) b -> Mac.compare a.mac b.mac)

let locate_mac t mac =
  Option.map (fun e -> e.at) (Hashtbl.find_opt t.by_mac (Mac.to_int mac))

let locate_ip t ip =
  Option.map (fun e -> (e.at, e.key)) (Hashtbl.find_opt t.by_ip (Ipv4.to_int ip))

let tenant_of_mac t mac =
  Option.map
    (fun e -> e.key.Proto.tenant)
    (Hashtbl.find_opt t.by_mac (Mac.to_int mac))

let switches_of_tenant t tenant =
  match Tid.Tbl.find_opt t.tenant_presence tenant with
  | None -> []
  | Some tbl ->
      Hashtbl.fold (fun sw _ acc -> Sid.of_int sw :: acc) tbl []
      |> List.sort Sid.compare

let n_entries t = Hashtbl.length t.by_mac
