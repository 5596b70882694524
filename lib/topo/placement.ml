open Lazyctrl_net
module Prng = Lazyctrl_util.Prng

type spec = {
  n_switches : int;
  n_tenants : int;
  tenant_size_min : int;
  tenant_size_max : int;
  racks_per_tenant : int;
  stray_fraction : float;
}

let default =
  {
    n_switches = 272;
    n_tenants = 120;
    tenant_size_min = 20;
    tenant_size_max = 100;
    racks_per_tenant = 4;
    stray_fraction = 0.05;
  }

let scaled ~factor spec =
  {
    spec with
    n_switches = spec.n_switches * factor + 1;
    n_tenants = spec.n_tenants * factor;
  }

let tenant_sizes ~rng spec =
  Array.init spec.n_tenants (fun _ ->
      Prng.int_in rng spec.tenant_size_min spec.tenant_size_max)

let generate ?(contiguous = true) ~rng spec =
  if spec.racks_per_tenant <= 0 then invalid_arg "Placement: racks_per_tenant <= 0";
  if spec.racks_per_tenant > spec.n_switches then
    invalid_arg "Placement: more home racks than switches";
  let topo = Topology.create ~n_switches:spec.n_switches in
  let sizes = tenant_sizes ~rng spec in
  let next_host = ref 0 in
  Array.iteri
    (fun tenant_idx size ->
      let tenant = Ids.Tenant_id.of_int tenant_idx in
      let homes =
        if contiguous then begin
          (* Allocation locality: a tenant's home racks form a contiguous
             row segment, as placement systems strive for — this is what
             makes edge switches groupable by traffic affinity at all. *)
          let start = Prng.int rng spec.n_switches in
          Array.init spec.racks_per_tenant (fun i ->
              (start + i) mod spec.n_switches)
        end
        else
          Prng.sample_distinct rng ~n:spec.racks_per_tenant
            ~bound:spec.n_switches
          |> Array.of_list
      in
      for _ = 1 to size do
        let sw =
          if Prng.float rng 1.0 < spec.stray_fraction then
            Prng.int rng spec.n_switches
          else Prng.choose rng homes
        in
        let host =
          Host.make ~id:(Ids.Host_id.of_int !next_host) ~tenant
        in
        incr next_host;
        Topology.add_host topo host ~at:(Ids.Switch_id.of_int sw)
      done)
    sizes;
  topo
