open Lazyctrl_net

type t =
  | Deliver of Ids.Host_id.t
  | Encap of Ipv4.t
  | Flood_local
  | To_controller
  | Drop
