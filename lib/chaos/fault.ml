open Lazyctrl_net
open Lazyctrl_sim

type kind =
  | Switch_off
  | Control_link
  | Peer_link
  | Data_path
  | Burst_loss
  | Controller_kill
  | Controller_partition

let all_kinds = [ Switch_off; Control_link; Peer_link; Data_path; Burst_loss ]

let cluster_kinds =
  [ Controller_kill; Controller_partition; Switch_off; Burst_loss ]

let kind_label = function
  | Switch_off -> "switch off"
  | Control_link -> "control link"
  | Peer_link -> "peer link"
  | Data_path -> "data path"
  | Burst_loss -> "burst loss"
  | Controller_kill -> "controller kill"
  | Controller_partition -> "controller partition"

type event = {
  at : Time.t;       (** offset from injection time *)
  duration : Time.t;
  kind : kind;
  primary : Ids.Switch_id.t;
  secondary : Ids.Switch_id.t;
      (** the far end for [Peer_link]/[Data_path]; ignored otherwise *)
}

let repair_at e = Time.add e.at e.duration

let pp_event fmt e =
  match e.kind with
  | Peer_link | Data_path ->
      Format.fprintf fmt "%a+%a %s sw%d->sw%d" Time.pp e.at Time.pp e.duration
        (kind_label e.kind)
        (Ids.Switch_id.to_int e.primary)
        (Ids.Switch_id.to_int e.secondary)
  | Burst_loss ->
      Format.fprintf fmt "%a+%a %s" Time.pp e.at Time.pp e.duration
        (kind_label e.kind)
  | Switch_off | Control_link ->
      Format.fprintf fmt "%a+%a %s sw%d" Time.pp e.at Time.pp e.duration
        (kind_label e.kind)
        (Ids.Switch_id.to_int e.primary)
  | Controller_kill | Controller_partition ->
      (* [Scenario.inject] reduces [primary] to a controller index (mod
         the controller count); print it raw so fingerprints stay
         stable. *)
      Format.fprintf fmt "%a+%a %s #%d" Time.pp e.at Time.pp e.duration
        (kind_label e.kind)
        (Ids.Switch_id.to_int e.primary)
