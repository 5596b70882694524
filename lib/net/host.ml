type t = {
  id : Ids.Host_id.t;
  mac : Mac.t;
  ip : Ipv4.t;
  tenant : Ids.Tenant_id.t;
}

let make ~id ~tenant =
  let n = Ids.Host_id.to_int id in
  { id; mac = Mac.of_host_id n; ip = Ipv4.of_host_id n; tenant }

let compare a b = Ids.Host_id.compare a.id b.id
let equal a b = Ids.Host_id.equal a.id b.id
