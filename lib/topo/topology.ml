open Lazyctrl_net
module Sid = Ids.Switch_id
module Hid = Ids.Host_id
module Tid = Ids.Tenant_id

type t = {
  n_switches : int;
  hosts : Host.t Hid.Tbl.t;
  location : Sid.t Hid.Tbl.t;
  at_switch : Hid.Set.t ref Sid.Tbl.t;
  by_tenant : Hid.Set.t ref Tid.Tbl.t;
}

let create ~n_switches =
  if n_switches <= 0 then invalid_arg "Topology.create: need at least one switch";
  {
    n_switches;
    hosts = Hid.Tbl.create 256;
    location = Hid.Tbl.create 256;
    at_switch = Sid.Tbl.create n_switches;
    by_tenant = Tid.Tbl.create 16;
  }

let n_switches t = t.n_switches

let switches t = List.init t.n_switches Sid.of_int

let underlay_ip _t sw = Ipv4.of_switch_id (Sid.to_int sw)

let set_find tbl_find tbl key =
  match tbl_find tbl key with
  | Some r -> r
  | None -> assert false

let get_or_create_set find add tbl key =
  match find tbl key with
  | Some r -> r
  | None ->
      let r = ref Hid.Set.empty in
      add tbl key r;
      r

let add_host t (h : Host.t) ~at =
  if Sid.to_int at >= t.n_switches then invalid_arg "Topology.add_host: bad switch";
  if Hid.Tbl.mem t.hosts h.id then invalid_arg "Topology.add_host: duplicate host";
  Hid.Tbl.replace t.hosts h.id h;
  Hid.Tbl.replace t.location h.id at;
  let s = get_or_create_set Sid.Tbl.find_opt Sid.Tbl.replace t.at_switch at in
  s := Hid.Set.add h.id !s;
  let ten = get_or_create_set Tid.Tbl.find_opt Tid.Tbl.replace t.by_tenant h.tenant in
  ten := Hid.Set.add h.id !ten

let n_hosts t = Hid.Tbl.length t.hosts

let hosts t =
  Hid.Tbl.fold (fun _ h acc -> h :: acc) t.hosts []
  |> List.sort Host.compare

let host t id =
  match Hid.Tbl.find_opt t.hosts id with Some h -> h | None -> raise Not_found

let location t id =
  match Hid.Tbl.find_opt t.location id with Some s -> s | None -> raise Not_found

let hosts_at t sw =
  match Sid.Tbl.find_opt t.at_switch sw with
  | None -> []
  | Some s -> Hid.Set.fold (fun id acc -> host t id :: acc) !s [] |> List.rev

let migrate t id ~to_ =
  let prev = location t id in
  if Sid.to_int to_ >= t.n_switches then invalid_arg "Topology.migrate: bad switch";
  let prev_set = set_find Sid.Tbl.find_opt t.at_switch prev in
  prev_set := Hid.Set.remove id !prev_set;
  let next_set = get_or_create_set Sid.Tbl.find_opt Sid.Tbl.replace t.at_switch to_ in
  next_set := Hid.Set.add id !next_set;
  Hid.Tbl.replace t.location id to_;
  prev

let tenants t =
  Tid.Tbl.fold (fun ten _ acc -> ten :: acc) t.by_tenant []
  |> List.sort Tid.compare

let tenant_hosts t ten =
  match Tid.Tbl.find_opt t.by_tenant ten with
  | None -> []
  | Some s -> Hid.Set.fold (fun id acc -> host t id :: acc) !s [] |> List.rev

let tenant_switches t ten =
  tenant_hosts t ten
  |> List.map (fun (h : Host.t) -> location t h.id)
  |> List.sort_uniq Sid.compare

let vlan_of_tenant ten = 1 + (Tid.to_int ten mod 4094)

