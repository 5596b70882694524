module Time = Lazyctrl_sim.Time
module Json = Lazyctrl_util.Json

type span = { at : Time.t; sn : int }

let span_compare a b =
  let c = Time.compare a.at b.at in
  if c <> 0 then c else Int.compare a.sn b.sn

let span_equal a b = span_compare a b = 0

type regroup = { full : bool; groups : int }
type chaos = { fault : string; phase : string }

type kind =
  | Ingress
  | Flow_table_hit
  | Lfib_hit
  | Gfib_probe of int
  | Bloom_fp
  | Punt of string
  | Deliver
  | Arp_local
  | Arp_group
  | Arp_escalate
  | Designated_relay of string
  | Ctrl_request of string
  | Ctrl_packet_in
  | Ctrl_install of int
  | Ctrl_arp_relay
  | Ctrl_flood
  | Regroup of regroup
  | Chaos_fault of chaos
  | Failover of string
  | Retransmit of string
  | Reliable_giveup of string

type t = {
  time : Time.t;
  seq : int;
  flow : int option;
  switch : int option;
  parent : span option;
  kind : kind;
}

let span_of e = { at = e.time; sn = e.seq }

let tag = function
  | Ingress -> 0
  | Flow_table_hit -> 1
  | Lfib_hit -> 2
  | Gfib_probe _ -> 3
  | Bloom_fp -> 4
  | Punt _ -> 5
  | Deliver -> 6
  | Arp_local -> 7
  | Arp_group -> 8
  | Arp_escalate -> 9
  | Designated_relay _ -> 10
  | Ctrl_request _ -> 11
  | Ctrl_packet_in -> 12
  | Ctrl_install _ -> 13
  | Ctrl_arp_relay -> 14
  | Ctrl_flood -> 15
  | Regroup _ -> 16
  | Chaos_fault _ -> 17
  | Failover _ -> 18
  | Retransmit _ -> 19
  | Reliable_giveup _ -> 20

let n_tags = 21

let tag_label = function
  | 0 -> "ingress"
  | 1 -> "flow_table_hit"
  | 2 -> "lfib_hit"
  | 3 -> "gfib_probe"
  | 4 -> "bloom_fp"
  | 5 -> "punt"
  | 6 -> "deliver"
  | 7 -> "arp_local"
  | 8 -> "arp_group"
  | 9 -> "arp_escalate"
  | 10 -> "designated_relay"
  | 11 -> "ctrl_request"
  | 12 -> "ctrl_packet_in"
  | 13 -> "ctrl_install"
  | 14 -> "ctrl_arp_relay"
  | 15 -> "ctrl_flood"
  | 16 -> "regroup"
  | 17 -> "chaos_fault"
  | 18 -> "failover"
  | 19 -> "retransmit"
  | 20 -> "reliable_giveup"
  | n -> invalid_arg (Printf.sprintf "Event.tag_label: %d" n)

let kind_label k = tag_label (tag k)

let kind_equal a b =
  match (a, b) with
  | Ingress, Ingress
  | Flow_table_hit, Flow_table_hit
  | Lfib_hit, Lfib_hit
  | Bloom_fp, Bloom_fp
  | Deliver, Deliver
  | Arp_local, Arp_local
  | Arp_group, Arp_group
  | Arp_escalate, Arp_escalate
  | Ctrl_packet_in, Ctrl_packet_in
  | Ctrl_arp_relay, Ctrl_arp_relay
  | Ctrl_flood, Ctrl_flood ->
      true
  | Gfib_probe a, Gfib_probe b | Ctrl_install a, Ctrl_install b ->
      Int.equal a b
  | Punt a, Punt b
  | Designated_relay a, Designated_relay b
  | Ctrl_request a, Ctrl_request b
  | Failover a, Failover b
  | Retransmit a, Retransmit b
  | Reliable_giveup a, Reliable_giveup b ->
      String.equal a b
  | Regroup a, Regroup b ->
      Bool.equal a.full b.full && Int.equal a.groups b.groups
  | Chaos_fault a, Chaos_fault b ->
      String.equal a.fault b.fault && String.equal a.phase b.phase
  | _ -> false

let equal a b =
  Time.equal a.time b.time && Int.equal a.seq b.seq
  && Option.equal Int.equal a.flow b.flow
  && Option.equal Int.equal a.switch b.switch
  && Option.equal span_equal a.parent b.parent
  && kind_equal a.kind b.kind

let compare a b = span_compare (span_of a) (span_of b)

(* --- JSON ------------------------------------------------------------------ *)

let args_of_kind = function
  | Ingress | Flow_table_hit | Lfib_hit | Bloom_fp | Deliver | Arp_local
  | Arp_group | Arp_escalate | Ctrl_packet_in | Ctrl_arp_relay | Ctrl_flood ->
      []
  | Gfib_probe n -> [ ("matches", Json.int n) ]
  | Punt reason -> [ ("reason", Json.Str reason) ]
  | Designated_relay what -> [ ("what", Json.Str what) ]
  | Ctrl_request req -> [ ("req", Json.Str req) ]
  | Ctrl_install target -> [ ("target", Json.int target) ]
  | Regroup r ->
      [ ("full", Json.Bool r.full); ("groups", Json.int r.groups) ]
  | Chaos_fault c ->
      [ ("fault", Json.Str c.fault); ("phase", Json.Str c.phase) ]
  | Failover verdict -> [ ("verdict", Json.Str verdict) ]
  | Retransmit session -> [ ("session", Json.Str session) ]
  | Reliable_giveup session -> [ ("session", Json.Str session) ]

let to_json e =
  let opt_int = function None -> Json.Null | Some n -> Json.int n in
  let parent =
    match e.parent with
    | None -> Json.Null
    | Some s -> Json.List [ Json.int (Time.to_ns s.at); Json.int s.sn ]
  in
  Json.Obj
    ([
       ("ts", Json.int (Time.to_ns e.time));
       ("seq", Json.int e.seq);
       ("flow", opt_int e.flow);
       ("sw", opt_int e.switch);
       ("parent", parent);
       ("kind", Json.Str (kind_label e.kind));
     ]
    @ args_of_kind e.kind)

let ( let* ) r f = Result.bind r f

let field name j =
  match Json.member name j with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %S" name)

let typed what conv name j =
  let* v = field name j in
  match conv v with
  | Some x -> Ok x
  | None -> Error (Printf.sprintf "field %S: expected %s" name what)

let int_field = typed "integer" Json.to_int
let str_field = typed "string" Json.to_str

let opt_int_field =
  typed "integer or null" (function
    | Json.Null -> Some None
    | v -> Option.map Option.some (Json.to_int v))

let kind_of_json j =
  let* label = str_field "kind" j in
  match label with
  | "ingress" -> Ok Ingress
  | "flow_table_hit" -> Ok Flow_table_hit
  | "lfib_hit" -> Ok Lfib_hit
  | "gfib_probe" ->
      let* n = int_field "matches" j in
      Ok (Gfib_probe n)
  | "bloom_fp" -> Ok Bloom_fp
  | "punt" ->
      let* reason = str_field "reason" j in
      Ok (Punt reason)
  | "deliver" -> Ok Deliver
  | "arp_local" -> Ok Arp_local
  | "arp_group" -> Ok Arp_group
  | "arp_escalate" -> Ok Arp_escalate
  | "designated_relay" ->
      let* what = str_field "what" j in
      Ok (Designated_relay what)
  | "ctrl_request" ->
      let* req = str_field "req" j in
      Ok (Ctrl_request req)
  | "ctrl_packet_in" -> Ok Ctrl_packet_in
  | "ctrl_install" ->
      let* target = int_field "target" j in
      Ok (Ctrl_install target)
  | "ctrl_arp_relay" -> Ok Ctrl_arp_relay
  | "ctrl_flood" -> Ok Ctrl_flood
  | "regroup" ->
      let* full = typed "bool" Json.to_bool "full" j in
      let* groups = int_field "groups" j in
      Ok (Regroup { full; groups })
  | "chaos_fault" ->
      let* fault = str_field "fault" j in
      let* phase = str_field "phase" j in
      Ok (Chaos_fault { fault; phase })
  | "failover" ->
      let* verdict = str_field "verdict" j in
      Ok (Failover verdict)
  | "retransmit" ->
      let* session = str_field "session" j in
      Ok (Retransmit session)
  | "reliable_giveup" ->
      let* session = str_field "session" j in
      Ok (Reliable_giveup session)
  | other -> Error (Printf.sprintf "unknown event kind %S" other)

let of_json j =
  let* ts = int_field "ts" j in
  let* seq = int_field "seq" j in
  let* flow = opt_int_field "flow" j in
  let* switch = opt_int_field "sw" j in
  let* parent =
    let* v = field "parent" j in
    let bad = Error "field \"parent\": expected null or [ts, seq]" in
    match v with
    | Json.Null -> Ok None
    | Json.List [ at; sn ] -> (
        match (Json.to_int at, Json.to_int sn) with
        | Some at, Some sn -> Ok (Some { at = Time.of_ns at; sn })
        | _ -> bad)
    | _ -> bad
  in
  let* kind = kind_of_json j in
  Ok { time = Time.of_ns ts; seq; flow; switch; parent; kind }

let pp ppf e =
  let pp_opt name ppf = function
    | None -> ()
    | Some n -> Format.fprintf ppf " %s=%d" name n
  in
  let pp_args ppf args =
    List.iter
      (fun (k, v) ->
        match v with
        | Json.Num n -> Format.fprintf ppf " %s=%.0f" k n
        | Json.Str s -> Format.fprintf ppf " %s=%s" k s
        | Json.Bool b -> Format.fprintf ppf " %s=%b" k b
        | _ -> ())
      args
  in
  Format.fprintf ppf "@[%a #%d %s%a%a%a%a@]" Time.pp e.time e.seq
    (kind_label e.kind) (pp_opt "flow") e.flow (pp_opt "sw") e.switch pp_args
    (args_of_kind e.kind)
    (fun ppf -> function
      | None -> ()
      | Some s -> Format.fprintf ppf " <- #%d@%dns" s.sn (Time.to_ns s.at))
    e.parent
