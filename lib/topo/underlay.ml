open Lazyctrl_sim
open Lazyctrl_net

(* An attached endpoint: its frame handler, the post that schedules on
   its engine, and its delivery count — written only by deliveries, so
   on the receiving side. *)
type endpoint = {
  deliver : Packet.t -> unit;
  post : Engine.post;
  mutable n_delivered : int;
}

(* [engine] is the senders' clock.  [n_dropped] and [n_bytes] move at
   send time, so on the sending side. *)
type t = {
  engine : Engine.t;
  latency : Time.t;
  jitter : (unit -> Time.t) option;
  endpoints : (int, endpoint) Hashtbl.t;
  mutable attached : endpoint list;
  failed : (int * int, unit) Hashtbl.t;
  mutable n_dropped : int;
  mutable n_bytes : int;
}

let create engine ~latency ?jitter () =
  {
    engine;
    latency;
    jitter;
    endpoints = Hashtbl.create 64;
    attached = [];
    failed = Hashtbl.create 8;
    n_dropped = 0;
    n_bytes = 0;
  }

let register t ip ~post deliver =
  let ep = { deliver; post; n_delivered = 0 } in
  Hashtbl.replace t.endpoints (Ipv4.to_int ip) ep;
  t.attached <- ep :: t.attached

let path_key ~src ~dst = (Ipv4.to_int src, Ipv4.to_int dst)

let fail_path t ~src ~dst = Hashtbl.replace t.failed (path_key ~src ~dst) ()
let repair_path t ~src ~dst = Hashtbl.remove t.failed (path_key ~src ~dst)
let path_up t ~src ~dst = not (Hashtbl.mem t.failed (path_key ~src ~dst))

let send t packet =
  match packet with
  | Packet.Plain _ ->
      t.n_dropped <- t.n_dropped + 1;
      false
  | Packet.Encap { outer_src; outer_dst; _ } -> (
      if not (path_up t ~src:outer_src ~dst:outer_dst) then begin
        t.n_dropped <- t.n_dropped + 1;
        false
      end
      else
        match Hashtbl.find_opt t.endpoints (Ipv4.to_int outer_dst) with
        | None ->
            t.n_dropped <- t.n_dropped + 1;
            false
        | Some ep ->
            let delay =
              match t.jitter with
              | None -> t.latency
              | Some j -> Time.add t.latency (j ())
            in
            t.n_bytes <- t.n_bytes + Packet.size_on_wire packet;
            ep.post ~at:(Time.add (Engine.now t.engine) delay) (fun () ->
                ep.n_delivered <- ep.n_delivered + 1;
                ep.deliver packet);
            true)

let delivered t = List.fold_left (fun acc ep -> acc + ep.n_delivered) 0 t.attached
let dropped t = t.n_dropped
let bytes_carried t = t.n_bytes
