open Lazyctrl_net
module Bloom = Lazyctrl_bloom.Bloom

type t = {
  bits_per_entry : int;
  expected : int;
  filters : Bloom.Counting.t Ids.Switch_id.Tbl.t;
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
    Ids.Switch_id.Tbl.fold (fun p f acc -> (p, f) :: acc) t.filters []
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

(* The peer's filter, created empty on first use. *)
let filter_of t peer =
  match Ids.Switch_id.Tbl.find_opt t.filters peer with
  | Some f -> f
  | None ->
      let f = fresh_filter t in
      Ids.Switch_id.Tbl.replace t.filters peer f;
      invalidate t;
      f

(* A known peer's filter is refilled in place: cleared, it equals a fresh
   one of the same geometry, and the peer cache keeps aliasing it. *)
let set_peer t peer keys =
  let filter = filter_of t peer in
  Bloom.Counting.clear filter;
  add_keys filter keys

let apply_advert t peer ~added ~removed =
  let filter = filter_of t peer in
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
    (fun _ f acc -> acc + (Bloom.Counting.size f / 8))
    t.filters 0

let clear t =
  Ids.Switch_id.Tbl.reset t.filters;
  invalidate t
