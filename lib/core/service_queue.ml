open Lazyctrl_sim

type t = {
  engine : Engine.t;
  service_time : Time.t;
  mutable busy_until : Time.t;
  mutable in_flight : int;
  mutable completed : int;
}

let create engine ~service_time =
  { engine; service_time; busy_until = Time.zero; in_flight = 0; completed = 0 }

let submit t f =
  let start = Time.max (Engine.now t.engine) t.busy_until in
  let finish = Time.add start t.service_time in
  t.busy_until <- finish;
  t.in_flight <- t.in_flight + 1;
  ignore
    (Engine.schedule_at t.engine ~at:finish (fun () ->
         t.in_flight <- t.in_flight - 1;
         t.completed <- t.completed + 1;
         f ()))

let queue_length t = t.in_flight
let completed t = t.completed
