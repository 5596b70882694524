type t = int

let max_addr = (1 lsl 48) - 1

let of_int v =
  if v < 0 || v > max_addr then invalid_arg "Mac.of_int: out of range";
  v

let to_int t = t

let broadcast = max_addr

let is_broadcast t = t = max_addr

let to_string t =
  Printf.sprintf "%02x:%02x:%02x:%02x:%02x:%02x"
    ((t lsr 40) land 0xff)
    ((t lsr 32) land 0xff)
    ((t lsr 24) land 0xff)
    ((t lsr 16) land 0xff)
    ((t lsr 8) land 0xff)
    (t land 0xff)

let of_string s =
  match String.split_on_char ':' s with
  | [ a; b; c; d; e; f ] ->
      let byte x =
        if String.length x <> 2 then invalid_arg "Mac.of_string: bad byte";
        match int_of_string_opt ("0x" ^ x) with
        | Some v when v >= 0 && v <= 0xff -> v
        | _ -> invalid_arg "Mac.of_string: bad byte"
      in
      of_int
        ((byte a lsl 40) lor (byte b lsl 32) lor (byte c lsl 24)
        lor (byte d lsl 16) lor (byte e lsl 8) lor byte f)
  | _ -> invalid_arg "Mac.of_string: expected six colon-separated bytes"

(* Locally administered (bit 0x02 of the first octet), unicast. *)
let of_host_id id =
  if id < 0 || id >= 1 lsl 40 then invalid_arg "Mac.of_host_id: id out of range";
  of_int ((0x02 lsl 40) lor id)

let compare = Int.compare
let equal = Int.equal
let pp fmt t = Format.pp_print_string fmt (to_string t)
