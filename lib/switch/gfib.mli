(** Group Forwarding Information Base.

    One counting Bloom filter per peer switch in the local control group,
    each summarizing that peer's L-FIB (§III-D2). Queries return the
    vector of peers whose filter claims the key — possibly several, due to
    false positives, in which case the datapath sends a copy to each
    (Fig. 5 line 18). Counting filters absorb incremental adds {e and}
    removes from [Lfib_advert]s; the per-peer sizing follows the paper's
    geometry of 128-byte Bloom blocks per 16 entries. *)

open Lazyctrl_net

type t

val create : ?bits_per_entry:int -> ?expected_hosts_per_switch:int -> unit -> t
(** Defaults: 128 bits/entry and 64 expected hosts per peer, i.e. a
    2048-byte filter per peer — the paper's 16 blocks of 128 bytes —
    giving a far-below-0.1% false-positive rate. The 2048 bytes are also
    the filter's footprint on the host: a {!Lazyctrl_bloom.Bloom.Counting}
    filter is that bit array plus a table of the few counters above one.
    Filters are sized once per peer and refilled on full syncs. *)

val set_peer : t -> Ids.Switch_id.t -> Proto.host_key list -> unit
(** Full replacement of a peer's filter contents (grouping change / full
    sync); a known peer's filter is cleared and refilled in place. *)

val apply_advert :
  t -> Ids.Switch_id.t -> added:Proto.host_key list -> removed:Proto.host_key list -> unit
(** Incremental update; unknown peers are created on first use. *)

val drop_peer : t -> Ids.Switch_id.t -> unit
val peers : t -> Ids.Switch_id.t list
val n_peers : t -> int

val candidates_mac : t -> Mac.t -> Ids.Switch_id.t list
(** Peers whose filter matches the MAC, ascending id (deterministic). *)

val candidates_ip : t -> Ipv4.t -> Ids.Switch_id.t list

val iter_candidates_mac : t -> Mac.t -> (Ids.Switch_id.t -> unit) -> int
(** [iter_candidates_mac t mac f] calls [f] on each matching peer in
    ascending id order — the same visit order as {!candidates_mac} —
    without building the intermediate list, and returns the number of
    candidates visited.  This is the per-packet fast path. *)

val iter_candidates_ip : t -> Ipv4.t -> (Ids.Switch_id.t -> unit) -> int

val has_candidate_ip : t -> Ipv4.t -> bool
(** Does any peer filter claim this IP?  Early-exits on first match. *)

val storage_bytes : t -> int
(** Total bit-array bytes across peers — the §V-D storage-overhead
    metric. *)

val clear : t -> unit
