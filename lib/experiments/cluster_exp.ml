open Lazyctrl_sim
open Lazyctrl_chaos
module Table = Lazyctrl_util.Table
module Reliable = Lazyctrl_openflow.Reliable
module Member = Lazyctrl_cluster.Member

let cfg_for ?(seed = 42) kind =
  let base = Runner.cluster_config in
  {
    base with
    Runner.seed;
    loss = 0.0;
    dup = 0.0;
    spec = { base.Runner.spec with Scenario.kinds = [ kind ]; n_faults = 1 };
  }

let table ?seed () =
  let tbl =
    Table.create
      [
        "Fault";
        "Flows";
        "Delivered";
        "Adoptions";
        "Handoffs";
        "Involvement";
        "Converged (s)";
        "Dup. deliveries";
      ]
  in
  List.iter
    (fun kind ->
      let r = Runner.run (cfg_for ?seed kind) in
      let m = r.Runner.member_stats in
      Table.add_row tbl
        [
          Fault.kind_label kind;
          Table.cell_int r.Runner.flows_started;
          Table.cell_int r.Runner.flows_delivered;
          Table.cell_int m.Member.adoptions;
          Table.cell_int m.Member.handoffs_offered;
          Table.cell_float ~decimals:4 r.Runner.involvement;
          (match r.Runner.converged_after with
          | Some t -> Table.cell_float ~decimals:1 (Time.to_float_sec t)
          | None -> "did not converge");
          Table.cell_int r.Runner.reliability.Reliable.violations;
        ])
    Fault.cluster_kinds;
  tbl
