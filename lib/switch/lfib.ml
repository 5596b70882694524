open Lazyctrl_net
module Intmap = Lazyctrl_util.Intmap

(* [by_mac]/[by_ip] are Intmaps, not Hashtbls: [Hashtbl.find_opt] boxes
   every hit in a fresh [Some] (~1.65 minor words/op measured on the
   hp-lfib-lookup probe, an allocation the static H001 check does not
   see), while [Intmap.find] returns the option stored at insertion time
   and allocates nothing. *)
type t = {
  by_id : Host.t Ids.Host_id.Tbl.t;
  by_mac : Host.t Intmap.t;
  by_ip : Host.t Intmap.t;
  mutable pending_added : Proto.host_key list;
  mutable pending_removed : Proto.host_key list;
}

let create () =
  {
    by_id = Ids.Host_id.Tbl.create 32;
    by_mac = Intmap.create ~capacity:32 ();
    by_ip = Intmap.create ~capacity:32 ();
    pending_added = [];
    pending_removed = [];
  }

let key_of (h : Host.t) : Proto.host_key =
  { mac = h.mac; ip = h.ip; tenant = h.tenant }

let learn t (h : Host.t) =
  if Ids.Host_id.Tbl.mem t.by_id h.id then false
  else begin
    Ids.Host_id.Tbl.replace t.by_id h.id h;
    Intmap.replace t.by_mac (Mac.to_int h.mac) h;
    Intmap.replace t.by_ip (Ipv4.to_int h.ip) h;
    t.pending_added <- key_of h :: t.pending_added;
    true
  end

let forget t id =
  match Ids.Host_id.Tbl.find_opt t.by_id id with
  | None -> false
  | Some h ->
      Ids.Host_id.Tbl.remove t.by_id id;
      Intmap.remove t.by_mac (Mac.to_int h.mac);
      Intmap.remove t.by_ip (Ipv4.to_int h.ip);
      t.pending_removed <- key_of h :: t.pending_removed;
      true

let lookup_mac t mac = Intmap.find t.by_mac (Mac.to_int mac)
let lookup_ip t ip = Intmap.find t.by_ip (Ipv4.to_int ip)
let lookup_id t id = Ids.Host_id.Tbl.find_opt t.by_id id
let mem_host t id = Ids.Host_id.Tbl.mem t.by_id id
let size t = Ids.Host_id.Tbl.length t.by_id

let hosts t =
  Ids.Host_id.Tbl.fold (fun _ h acc -> h :: acc) t.by_id [] |> List.sort Host.compare

let local_tenants t =
  hosts t |> List.map (fun (h : Host.t) -> h.tenant) |> List.sort_uniq Ids.Tenant_id.compare

let hosts_of_tenant t tenant =
  hosts t |> List.filter (fun (h : Host.t) -> Ids.Tenant_id.equal h.tenant tenant)

let take_pending t =
  let added = List.rev t.pending_added and removed = List.rev t.pending_removed in
  t.pending_added <- [];
  t.pending_removed <- [];
  (added, removed)

let has_pending t =
  (not (List.is_empty t.pending_added))
  || not (List.is_empty t.pending_removed)

let all_keys t = List.map key_of (hosts t)

let to_bloom ?(bits_per_entry = 16) t =
  let n = max 1 (size t) in
  let bits = max 64 (bits_per_entry * 2 * n) in
  let bloom = Lazyctrl_bloom.Bloom.create ~bits () in
  Ids.Host_id.Tbl.iter
    (fun _ (h : Host.t) ->
      Lazyctrl_bloom.Bloom.add bloom (Proto.mac_key h.mac);
      Lazyctrl_bloom.Bloom.add bloom (Proto.ip_key h.ip))
    t.by_id;
  bloom
