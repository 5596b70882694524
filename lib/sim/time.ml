type t = int

let zero = 0

let of_ns n =
  if n < 0 then invalid_arg "Time.of_ns: negative";
  n

let of_us n = of_ns (n * 1_000)
let of_ms n = of_ns (n * 1_000_000)
let of_sec n = of_ns (n * 1_000_000_000)
let of_min n = of_sec (n * 60)
let of_hour n = of_min (n * 60)

let of_float_sec s =
  if s < 0.0 then invalid_arg "Time.of_float_sec: negative";
  int_of_float (Float.round (s *. 1e9))

let to_ns t = t
let to_float_sec t = Float.of_int t /. 1e9
let to_float_ms t = Float.of_int t /. 1e6

let add a b = a + b

let sub a b =
  if a < b then invalid_arg "Time.sub: negative result";
  a - b

let diff a b = abs (a - b)
let scale t f = int_of_float (Float.round (Float.of_int t *. f))
let compare = Int.compare
let ( < ) (a : t) b = Stdlib.( < ) a b
let ( <= ) (a : t) b = Stdlib.( <= ) a b
let ( > ) (a : t) b = Stdlib.( > ) a b
let ( >= ) (a : t) b = Stdlib.( >= ) a b
let equal = Int.equal
let min (a : t) b = Stdlib.min a b
let max (a : t) b = Stdlib.max a b

let pp fmt t =
  let f = Float.of_int t in
  if t >= 3_600_000_000_000 then Format.fprintf fmt "%gh" (f /. 3.6e12)
  else if t >= 60_000_000_000 then Format.fprintf fmt "%gmin" (f /. 6e10)
  else if t >= 1_000_000_000 then Format.fprintf fmt "%gs" (f /. 1e9)
  else if t >= 1_000_000 then Format.fprintf fmt "%gms" (f /. 1e6)
  else if t >= 1_000 then Format.fprintf fmt "%gus" (f /. 1e3)
  else Format.fprintf fmt "%dns" t
