type t = int

let of_int v =
  if v < 0 || v > 0xFFFFFFFF then invalid_arg "Ipv4.of_int: out of range";
  v

let to_int t = t

let of_octets a b c d =
  let ok x = x >= 0 && x <= 0xff in
  if not (ok a && ok b && ok c && ok d) then
    invalid_arg "Ipv4.of_octets: octet out of range";
  (a lsl 24) lor (b lsl 16) lor (c lsl 8) lor d

let to_string t =
  Printf.sprintf "%d.%d.%d.%d" ((t lsr 24) land 0xff) ((t lsr 16) land 0xff)
    ((t lsr 8) land 0xff) (t land 0xff)

let of_string s =
  match String.split_on_char '.' s with
  | [ a; b; c; d ] ->
      let octet x =
        match int_of_string_opt x with
        | Some v when v >= 0 && v <= 255 -> v
        | _ -> invalid_arg "Ipv4.of_string: bad octet"
      in
      of_octets (octet a) (octet b) (octet c) (octet d)
  | _ -> invalid_arg "Ipv4.of_string: expected dotted quad"

let of_host_id id =
  if id < 0 || id >= 1 lsl 24 then invalid_arg "Ipv4.of_host_id: id out of range";
  (10 lsl 24) lor id

let of_switch_id id =
  if id < 0 || id >= 1 lsl 16 then invalid_arg "Ipv4.of_switch_id: id out of range";
  (172 lsl 24) lor (16 lsl 16) lor id

let compare = Int.compare
let equal = Int.equal
let pp fmt t = Format.pp_print_string fmt (to_string t)
