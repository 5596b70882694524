open Lazyctrl_net
open Lazyctrl_sim
open Lazyctrl_openflow
open Lazyctrl_core
module Prng = Lazyctrl_util.Prng
module Sid = Ids.Switch_id

type spec = {
  n_faults : int;
  window : Time.t;
  min_duration : Time.t;
  max_duration : Time.t;
  kinds : Fault.kind list;
  burst : Channel.loss_spec;
}

let default =
  {
    n_faults = 6;
    window = Time.of_sec 30;
    min_duration = Time.of_sec 3;
    max_duration = Time.of_sec 15;
    kinds = Fault.all_kinds;
    burst = Channel.bursty_loss ~base:0.10 ~burst:0.60 ();
  }

let time_in rng lo hi =
  (* Millisecond granularity keeps fingerprints readable. *)
  let lo_ms = Time.to_ns lo / 1_000_000 and hi_ms = Time.to_ns hi / 1_000_000 in
  Time.of_ms (Prng.int_in rng lo_ms (max lo_ms hi_ms))

let generate ~rng ~n_switches spec =
  if List.is_empty spec.kinds then invalid_arg "Scenario.generate: no fault kinds";
  if n_switches < 2 then invalid_arg "Scenario.generate: need >= 2 switches";
  let kinds = Array.of_list spec.kinds in
  let events =
    List.init spec.n_faults (fun i ->
        (* Cycle through the kind list so every requested kind is exercised
           whenever [n_faults >= length kinds]; times and targets are drawn
           from the stream. *)
        let kind = kinds.(i mod Array.length kinds) in
        let at = time_in rng Time.zero spec.window in
        let duration = time_in rng spec.min_duration spec.max_duration in
        let primary = Prng.int rng n_switches in
        let secondary = (primary + 1 + Prng.int rng (n_switches - 1)) mod n_switches in
        {
          Fault.at;
          duration;
          kind;
          primary = Sid.of_int primary;
          secondary = Sid.of_int secondary;
        })
  in
  List.stable_sort (fun a b -> Time.compare a.Fault.at b.Fault.at) events

let last_repair events =
  List.fold_left (fun acc e -> Time.max acc (Fault.repair_at e)) Time.zero events

let inject net spec ~baseline events =
  let engine = Network.engine net in
  let base_control, base_peer = baseline in
  (* Burst storms may overlap: restore the baseline model only when the
     last overlapping storm ends. *)
  let storms = ref 0 in
  (* Controller faults reduce the drawn switch to a controller index. *)
  let controller_of (e : Fault.event) =
    Sid.to_int e.primary mod Network.controllers net
  in
  let start_burst () =
    incr storms;
    Network.set_control_loss net (Some spec.burst);
    Network.set_peer_loss net (Some spec.burst)
  in
  let end_burst () =
    decr storms;
    if !storms = 0 then begin
      Network.set_control_loss net base_control;
      Network.set_peer_loss net base_peer
    end
  in
  List.iter
    (fun (e : Fault.event) ->
      let fail, repair =
        match e.kind with
        | Fault.Switch_off ->
            ( (fun () -> Network.fail_switch net e.primary),
              fun () -> Network.repair_switch net e.primary )
        | Fault.Control_link ->
            ( (fun () -> Network.fail_control_link net e.primary),
              fun () -> Network.repair_control_link net e.primary )
        | Fault.Peer_link ->
            ( (fun () -> Network.fail_peer_link net e.primary e.secondary),
              fun () -> Network.repair_peer_link net e.primary e.secondary )
        | Fault.Data_path ->
            ( (fun () ->
                Network.fail_data_path net ~src:e.primary ~dst:e.secondary
                  ~notify:true),
              fun () ->
                Network.repair_data_path net ~src:e.primary ~dst:e.secondary )
        | Fault.Burst_loss -> (start_burst, end_burst)
        | Fault.Controller_kill | Fault.Controller_partition
          when Network.controllers net = 1 ->
            (* A single controller has no member to kill or mesh to cut. *)
            ((fun () -> ()), fun () -> ())
        | Fault.Controller_kill ->
            let k = controller_of e in
            ( (fun () -> Network.kill_controller net k),
              fun () -> Network.revive_controller net k )
        | Fault.Controller_partition ->
            let k = controller_of e in
            ( (fun () -> Network.partition_controller net k),
              fun () -> Network.heal_controller net k )
      in
      ignore (Engine.schedule engine ~after:e.at fail);
      ignore (Engine.schedule engine ~after:(Fault.repair_at e) repair))
    events
