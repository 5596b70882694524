open Lazyctrl_net
module Bloom = Lazyctrl_bloom.Bloom

(* A peer's filter, and the record (below) of the full list it was last
   rebuilt from: [None] while no full list has rebuilt it since it was
   created or since an incremental advert last touched it. *)
type peer = { filter : Bloom.Counting.t; mutable synced : string option }

type t = {
  bits_per_entry : int;
  expected : int;
  filters : peer Ids.Switch_id.Tbl.t;
  (* Peers sorted ascending by id, rebuilt lazily after membership
     changes. Per-packet probes walk this array instead of folding and
     sorting the hashtable, which kept the old implementation both slow
     and allocating. Counter mutations ([apply_advert] on a known peer)
     leave the cache valid because entries alias the live filters. *)
  mutable peer_cache : (Ids.Switch_id.t * Bloom.Counting.t) array option;
}

let create ?(bits_per_entry = 128) ?(expected_hosts_per_switch = 64) () =
  if bits_per_entry < 2 then invalid_arg "Gfib.create: bits_per_entry < 2";
  {
    bits_per_entry;
    expected = max 1 expected_hosts_per_switch;
    filters = Ids.Switch_id.Tbl.create 64;
    peer_cache = None;
  }

let invalidate t = t.peer_cache <- None

(* The rebuild allocates freely; it runs only after a membership change
   (set_peer/drop_peer/adopt), never per packet — a declared cold
   boundary in the H00x hot-path spec. *)
let rebuild_peer_cache t =
  let a =
    Ids.Switch_id.Tbl.fold (fun p e acc -> (p, e.filter) :: acc) t.filters []
    |> List.sort (fun (a, _) (b, _) -> Ids.Switch_id.compare a b)
    |> Array.of_list
  in
  t.peer_cache <- Some a;
  a

let peer_array t =
  match t.peer_cache with Some a -> a | None -> rebuild_peer_cache t

let fresh_filter t =
  (* Two keys (MAC + IP) per host. *)
  Bloom.Counting.create ~counters:(t.bits_per_entry * 2 * t.expected) ()

let add_keys filter (keys : Proto.host_key list) =
  List.iter
    (fun (k : Proto.host_key) ->
      Bloom.Counting.add filter (Proto.mac_key k.mac);
      Bloom.Counting.add filter (Proto.ip_key k.ip))
    keys

(* The peer's entry, created empty on first use. *)
let peer_of t peer =
  match Ids.Switch_id.Tbl.find_opt t.filters peer with
  | Some e -> e
  | None ->
      let e = { filter = fresh_filter t; synced = None } in
      Ids.Switch_id.Tbl.replace t.filters peer e;
      invalidate t;
      e

(* A full list's record holds each host's MAC and then its IP, each as
   its difference from the previous host's (from 0 for the first),
   zigzag-mapped to a non-negative int and written as a varint: 7 bits a
   byte, low bits first, the high bit set on every byte but the last.
   [Proto.mac_key] and [Proto.ip_key] are injective, so lists with equal
   records add the same Bloom keys in the same order. A list in
   ascending MAC order, as L-FIBs and C-LIB rows are sent, costs a few
   bytes per host. *)
let zigzag d = (d lsl 1) lxor (d asr 62)

let rec put_varint b o v =
  if v < 0x80 then begin
    Bytes.set b o (Char.chr v);
    o + 1
  end
  else begin
    Bytes.set b o (Char.chr (0x80 lor (v land 0x7f)));
    put_varint b (o + 1) (v lsr 7)
  end

let record keys =
  (* Zigzagged, a difference of 48-bit MACs is below 2^49 (7 bytes) and
     one of 32-bit IPs below 2^33 (5 bytes): at most 12 bytes a host. *)
  let b = Bytes.create (12 * List.length keys) in
  let rec put o mac ip = function
    | [] -> o
    | (k : Proto.host_key) :: rest ->
        let m = Mac.to_int k.mac and i = Ipv4.to_int k.ip in
        let o = put_varint b o (zigzag (m - mac)) in
        put (put_varint b o (zigzag (i - ip))) m i rest
  in
  Bytes.sub_string b 0 (put 0 0 0 keys)

(* The offset past the varint of [v] at offset [o] of [s], or -1 when
   [s] holds something else there. *)
let rec match_varint s o v =
  if o >= String.length s then -1
  else
    let c = Char.code (String.unsafe_get s o) in
    if c < 0x80 then if v = c then o + 1 else -1
    else if v land 0x7f = c land 0x7f then match_varint s (o + 1) (v lsr 7)
    else -1

(* Is [s], from offset [o] on, the record of [keys] following a host
   with [mac] and [ip]? *)
let rec matches s o mac ip = function
  | [] -> o = String.length s
  | (k : Proto.host_key) :: rest ->
      let m = Mac.to_int k.mac and i = Ipv4.to_int k.ip in
      let o = match_varint s o (zigzag (m - mac)) in
      o >= 0
      &&
      let o = match_varint s o (zigzag (i - ip)) in
      o >= 0 && matches s o m i rest

(* A known peer's filter is refilled in place: cleared, it equals a fresh
   one of the same geometry, and the peer cache keeps aliasing it. A list
   equal to the one the filter was last rebuilt from, with no advert
   since, would refill the same counters, so it leaves the filter as it
   is. *)
let set_peer t peer keys =
  let e = peer_of t peer in
  match e.synced with
  | Some s when matches s 0 0 0 keys -> ()
  | _ ->
      Bloom.Counting.clear e.filter;
      add_keys e.filter keys;
      e.synced <- Some (record keys)

let apply_advert t peer ~added ~removed =
  let e = peer_of t peer in
  e.synced <- None;
  let filter = e.filter in
  add_keys filter added;
  List.iter
    (fun (k : Proto.host_key) ->
      Bloom.Counting.remove filter (Proto.mac_key k.mac);
      Bloom.Counting.remove filter (Proto.ip_key k.ip))
    removed

let drop_peer t peer =
  Ids.Switch_id.Tbl.remove t.filters peer;
  invalidate t

let peers t = List.map fst (Array.to_list (peer_array t))
let n_peers t = Ids.Switch_id.Tbl.length t.filters

let candidates key t =
  let a = peer_array t in
  let acc = ref [] in
  for i = Array.length a - 1 downto 0 do
    let p, f = Array.unsafe_get a i in
    if Bloom.Counting.mem f key then acc := p :: !acc
  done;
  !acc

let candidates_mac t mac = candidates (Proto.mac_key mac) t
let candidates_ip t ip = candidates (Proto.ip_key ip) t

(* Match counting by recursion: a [ref] counter would be a per-probe
   minor allocation on the packet path. *)
let rec iter_candidates_from a key f i n =
  if i >= Array.length a then n
  else begin
    let p, flt = Array.unsafe_get a i in
    if Bloom.Counting.mem flt key then begin
      f p;
      iter_candidates_from a key f (i + 1) (n + 1)
    end
    else iter_candidates_from a key f (i + 1) n
  end

let iter_candidates key t f = iter_candidates_from (peer_array t) key f 0 0

let iter_candidates_mac t mac f = iter_candidates (Proto.mac_key mac) t f
let iter_candidates_ip t ip f = iter_candidates (Proto.ip_key ip) t f

let has_candidate key t =
  let a = peer_array t in
  let len = Array.length a in
  let rec go i =
    i < len
    &&
    let _, flt = Array.unsafe_get a i in
    Bloom.Counting.mem flt key || go (i + 1)
  in
  go 0

let has_candidate_ip t ip = has_candidate (Proto.ip_key ip) t

let storage_bytes t =
  (* The bit arrays, as in the paper's 92,160-byte example. A counting
     filter keeps exactly this array on the host too, plus a table of
     the few counters above one, which is not counted here. *)
  Ids.Switch_id.Tbl.fold
    (fun _ e acc -> acc + (Bloom.Counting.size e.filter / 8))
    t.filters 0

let clear t =
  Ids.Switch_id.Tbl.reset t.filters;
  invalidate t
