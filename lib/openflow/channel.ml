open Lazyctrl_sim
module Prng = Lazyctrl_util.Prng

type loss_spec = {
  p_loss_good : float;
  p_loss_bad : float;
  p_good_to_bad : float;
  p_bad_to_good : float;
  p_duplicate : float;
}

let uniform_loss ?(dup = 0.0) rate =
  {
    p_loss_good = rate;
    p_loss_bad = rate;
    p_good_to_bad = 0.0;
    p_bad_to_good = 1.0;
    p_duplicate = dup;
  }

let bursty_loss ?(dup = 0.0) ~base ~burst () =
  {
    p_loss_good = base;
    p_loss_bad = burst;
    p_good_to_bad = 0.05;
    p_bad_to_good = 0.25;
    p_duplicate = dup;
  }

type loss_state = { rng : Prng.t; spec : loss_spec; mutable bad : bool }

(* [engine] is the sender's clock; delivery goes only through [post],
   which schedules on the receiver's engine.  Every counter has one
   writing side: the send-side ones ([n_sent], [n_lost], ...) move on
   the sender, [n_delivered], [n_bytes_delivered] and [n_dropped_rx] on
   the receiver, so a channel between two shards shares no written
   state while a window runs. *)
type 'msg t = {
  engine : Engine.t;
  post : Engine.post;
  latency : Time.t;
  jitter : (unit -> Time.t) option;
  chan_name : string;
  strict : bool;
  mutable receiver : ('msg -> unit) option;
  mutable up : bool;
  mutable epoch : int; (* bumped on [fail]; in-flight messages of older epochs die *)
  mutable last_delivery : Time.t;
  mutable loss : loss_state option;
  (* Binary codec: when set, every send is encoded to a frame and the
     delivered value is reconstructed from those bytes, so the channel
     carries — and counts — real bytes (DESIGN.md §13). *)
  mutable codec : (('msg -> bytes) * (bytes -> 'msg)) option;
  mutable on_wire : (int -> unit) option;
  mutable n_sent : int;
  mutable n_delivered : int;
  mutable n_dropped : int;
  mutable n_dropped_rx : int;
  mutable n_lost : int;
  mutable n_duplicated : int;
  mutable n_bytes_sent : int;
  mutable n_bytes_delivered : int;
}

let create ?(strict = false) engine ~post ~latency ?jitter ~name () =
  {
    engine;
    post;
    latency;
    jitter;
    chan_name = name;
    strict;
    receiver = None;
    up = true;
    epoch = 0;
    last_delivery = Time.zero;
    loss = None;
    codec = None;
    on_wire = None;
    n_sent = 0;
    n_delivered = 0;
    n_dropped = 0;
    n_dropped_rx = 0;
    n_lost = 0;
    n_duplicated = 0;
    n_bytes_sent = 0;
    n_bytes_delivered = 0;
  }

let name t = t.chan_name

let set_receiver t f = t.receiver <- Some f

let set_loss t ~rng spec = t.loss <- Some { rng; spec; bad = false }
let clear_loss t = t.loss <- None
let loss_active t = Option.is_some t.loss

let set_codec t ~encode ~decode = t.codec <- Some (encode, decode)
let codec_active t = Option.is_some t.codec
let set_wire_hook t f = t.on_wire <- Some f

(* How many copies of this message reach the wire: 0 (lost), 1, or 2
   (duplicated).  Exactly three draws are consumed per send whenever a
   loss model is attached, regardless of the outcome, so the stream
   stays aligned across runs that only differ in message contents. *)
let wire_copies t =
  match t.loss with
  | None -> 1
  | Some ls ->
      let u_loss = Prng.float ls.rng 1.0 in
      let u_flip = Prng.float ls.rng 1.0 in
      let u_dup = Prng.float ls.rng 1.0 in
      let p_loss = if ls.bad then ls.spec.p_loss_bad else ls.spec.p_loss_good in
      let p_flip =
        if ls.bad then ls.spec.p_bad_to_good else ls.spec.p_good_to_bad
      in
      if u_flip < p_flip then ls.bad <- not ls.bad;
      if u_loss < p_loss then 0
      else if u_dup < ls.spec.p_duplicate then 2
      else 1

let schedule_delivery t ~nbytes msg =
  let delay =
    match t.jitter with
    | None -> t.latency
    | Some j -> Time.add t.latency (j ())
  in
  let at =
    (* FIFO: never deliver before a previously scheduled message. *)
    Time.max (Time.add (Engine.now t.engine) delay) t.last_delivery
  in
  t.last_delivery <- at;
  let epoch = t.epoch in
  t.post ~at (fun () ->
      if t.up && epoch = t.epoch then
        match t.receiver with
        | Some f ->
            t.n_delivered <- t.n_delivered + 1;
            t.n_bytes_delivered <- t.n_bytes_delivered + nbytes;
            f msg
        | None ->
            if t.strict then
              invalid_arg
                (Printf.sprintf
                   "Channel %s: message delivered before any receiver was \
                    set (wiring-order bug)"
                   t.chan_name)
            else t.n_dropped_rx <- t.n_dropped_rx + 1
      else t.n_dropped_rx <- t.n_dropped_rx + 1)

let send t msg =
  if not t.up then begin
    t.n_dropped <- t.n_dropped + 1;
    false
  end
  else begin
    t.n_sent <- t.n_sent + 1;
    (* With a codec attached the message is marshalled exactly once and
       the delivered value is rebuilt from the frame, so what crosses the
       channel is bytes; duplicates re-deliver the same frame's worth. *)
    let nbytes, msg =
      match t.codec with
      | None -> (0, msg)
      | Some (enc, dec) ->
          let frame = enc msg in
          let n = Bytes.length frame in
          t.n_bytes_sent <- t.n_bytes_sent + n;
          (match t.on_wire with Some f -> f n | None -> ());
          (n, dec frame)
    in
    (match wire_copies t with
    | 0 -> t.n_lost <- t.n_lost + 1
    | 1 -> schedule_delivery t ~nbytes msg
    | _ ->
        t.n_duplicated <- t.n_duplicated + 1;
        schedule_delivery t ~nbytes msg;
        schedule_delivery t ~nbytes msg);
    (* Random loss is invisible to the sender, like a real wire: only a
       downed channel reports failure. *)
    true
  end

let fail t =
  if t.up then begin
    t.up <- false;
    t.epoch <- t.epoch + 1
  end

let repair t = t.up <- true

let is_up t = t.up
let sent t = t.n_sent
let bytes_sent t = t.n_bytes_sent
let bytes_delivered t = t.n_bytes_delivered
let delivered t = t.n_delivered
let dropped t = t.n_dropped + t.n_dropped_rx
let lost t = t.n_lost
let duplicated t = t.n_duplicated
