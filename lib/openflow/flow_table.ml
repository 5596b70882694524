open Lazyctrl_sim

type entry = {
  priority : int;
  ofmatch : Ofmatch.t;
  actions : Action.t list;
  idle_timeout : Time.t option;
  hard_timeout : Time.t option;
  cookie : int;
}

type live = {
  entry : entry;
  seq : int; (* installation order; later wins among equal priorities *)
  installed_at : Time.t;
  mutable last_used : Time.t;
  mutable packets : int;
}

type stats = {
  lookups : int;
  hits : int;
  installs : int;
  evictions : int;
  expiries : int;
}

type t = {
  capacity : int;
  mutable rows : live list; (* sorted: priority desc, then seq desc *)
  mutable next_seq : int;
  mutable lookups : int;
  mutable hits : int;
  mutable installs : int;
  mutable evictions : int;
  mutable expiries : int;
}

let create ?(capacity = 65536) () =
  if capacity <= 0 then invalid_arg "Flow_table.create: capacity must be positive";
  {
    capacity;
    rows = [];
    next_seq = 0;
    lookups = 0;
    hits = 0;
    installs = 0;
    evictions = 0;
    expiries = 0;
  }

let expired ~now l =
  (match l.entry.hard_timeout with
  | Some h -> Time.(Time.add l.installed_at h <= now)
  | None -> false)
  ||
  match l.entry.idle_timeout with
  | Some i -> Time.(Time.add l.last_used i <= now)
  | None -> false

let sweep t ~now =
  let before = List.length t.rows in
  t.rows <- List.filter (fun l -> not (expired ~now l)) t.rows;
  let dropped = before - List.length t.rows in
  t.expiries <- t.expiries + dropped;
  dropped

let cmp_rows a b =
  match Int.compare b.entry.priority a.entry.priority with
  | 0 -> Int.compare b.seq a.seq
  | c -> c

let evict_one t =
  (* Lowest priority; among those, the oldest use. *)
  match
    List.fold_left
      (fun acc l ->
        match acc with
        | None -> Some l
        | Some best ->
            if
              l.entry.priority < best.entry.priority
              || (l.entry.priority = best.entry.priority
                 && Time.(l.last_used < best.last_used))
            then Some l
            else acc)
      None t.rows
  with
  | None -> ()
  | Some victim ->
      t.rows <- List.filter (fun l -> l != victim) t.rows;
      t.evictions <- t.evictions + 1

let install t ~now entry =
  t.installs <- t.installs + 1;
  t.rows <-
    List.filter
      (fun l ->
        not
          (l.entry.priority = entry.priority
          && Ofmatch.equal l.entry.ofmatch entry.ofmatch))
      t.rows;
  ignore (sweep t ~now);
  if List.length t.rows >= t.capacity then evict_one t;
  let l =
    { entry; seq = t.next_seq; installed_at = now; last_used = now; packets = 0 }
  in
  t.next_seq <- t.next_seq + 1;
  t.rows <- List.sort cmp_rows (l :: t.rows)

let remove_matching t m =
  let before = List.length t.rows in
  t.rows <- List.filter (fun l -> not (Ofmatch.subsumes m l.entry.ofmatch)) t.rows;
  before - List.length t.rows

(* Fully-applied recursion (a local [let rec find = ...] would build a
   closure per lookup, and lookup is on the per-packet hot path).  The
   single [Some] boxing the hit is the lookup API and is allowlisted. *)
let rec lookup_rows t ~now eth rows =
  match rows with
  | [] -> None
  | l :: rest ->
      if expired ~now l then lookup_rows t ~now eth rest
      else if Ofmatch.matches l.entry.ofmatch eth then begin
        t.hits <- t.hits + 1;
        l.last_used <- now;
        l.packets <- l.packets + 1;
        Some l.entry.actions
      end
      else lookup_rows t ~now eth rest

let lookup t ~now eth =
  t.lookups <- t.lookups + 1;
  lookup_rows t ~now eth t.rows

let size t = List.length t.rows

let stats t =
  {
    lookups = t.lookups;
    hits = t.hits;
    installs = t.installs;
    evictions = t.evictions;
    expiries = t.expiries;
  }

let packet_count t ~cookie =
  List.fold_left
    (fun acc l -> if l.entry.cookie = cookie then acc + l.packets else acc)
    0 t.rows
