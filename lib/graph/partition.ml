module Heap = Lazyctrl_util.Heap
module Prng = Lazyctrl_util.Prng
module Det = Lazyctrl_util.Det

type assignment = int array

let edge_cut g a =
  let cut = ref 0.0 in
  Wgraph.iter_edges g (fun u v w -> if a.(u) <> a.(v) then cut := !cut +. w);
  !cut

let normalized_cut g a =
  let tw = Wgraph.total_edge_weight g in
  if tw <= 0.0 then 0.0 else edge_cut g a /. tw

let part_weights g ~k a =
  let pw = Array.make k 0 in
  Array.iteri (fun v p -> pw.(p) <- pw.(p) + Wgraph.vertex_weight g v) a;
  pw

let validate g ~k ?max_part_weight a =
  let n = Wgraph.n_vertices g in
  if Array.length a <> n then Error "assignment length mismatch"
  else if Array.exists (fun p -> p < 0 || p >= k) a then
    Error "part index out of range"
  else
    match max_part_weight with
    | None -> Ok ()
    | Some cap ->
        let pw = part_weights g ~k a in
        let bad = ref None in
        Array.iteri
          (fun p w -> if w > cap && Option.is_none !bad then bad := Some (p, w))
          pw;
        (match !bad with
        | None -> Ok ()
        | Some (p, w) ->
            Error (Printf.sprintf "part %d weight %d exceeds cap %d" p w cap))

let default_cap g ~k =
  let total = Wgraph.total_vertex_weight g in
  let slack = int_of_float (Float.ceil (1.1 *. Float.of_int total /. Float.of_int k)) in
  let max_vw = ref 1 in
  for v = 0 to Wgraph.n_vertices g - 1 do
    max_vw := max !max_vw (Wgraph.vertex_weight g v)
  done;
  max slack !max_vw

(* Connection weights from vertex [v] to each part, as an association over
   the parts adjacent to [v], sorted by part index so callers scan it in a
   deterministic order. *)
let connections g a v =
  let conn = Hashtbl.create 8 in
  Wgraph.iter_neighbors g v (fun u w ->
      let p = a.(u) in
      if p >= 0 then
        Hashtbl.replace conn p (w +. Option.value (Hashtbl.find_opt conn p) ~default:0.0));
  Det.bindings_sorted ~cmp:Int.compare conn

let refine g ~k ?max_part_weight ?(passes = 8) a =
  let cap = match max_part_weight with Some c -> c | None -> default_cap g ~k in
  let n = Wgraph.n_vertices g in
  let pw = part_weights g ~k a in
  let moves = ref 0 in
  let pass () =
    let moved = ref 0 in
    for v = 0 to n - 1 do
      let from = a.(v) in
      let vw = Wgraph.vertex_weight g v in
      let conn = connections g a v in
      let internal =
        Option.value (List.assoc_opt from conn) ~default:0.0
      in
      let best_p = ref (-1) and best_gain = ref 0.0 in
      List.iter
        (fun (p, w) ->
          if p <> from && pw.(p) + vw <= cap then begin
            let gain = w -. internal in
            let better =
              gain > !best_gain
              || (Float.equal gain !best_gain && !best_p >= 0
                  && pw.(p) < pw.(!best_p))
            in
            if gain > 0.0 && (!best_p < 0 || better) then begin
              best_p := p;
              best_gain := gain
            end
          end)
        conn;
      if !best_p >= 0 then begin
        pw.(from) <- pw.(from) - vw;
        pw.(!best_p) <- pw.(!best_p) + vw;
        a.(v) <- !best_p;
        incr moved
      end
    done;
    !moved
  in
  let rec loop i =
    if i < passes then begin
      let m = pass () in
      moves := !moves + m;
      if m > 0 then loop (i + 1)
    end
  in
  loop 0;
  !moves

(* Move vertices out of over-cap parts into parts with room, preferring
   moves that lose the least connectivity. Works at any level but is only
   guaranteed to converge when vertex weights can fit the available room —
   always true at the finest level where weights are 1. *)
let repair g ~k ~cap a =
  let n = Wgraph.n_vertices g in
  let pw = part_weights g ~k a in
  let overweight () =
    let r = ref (-1) in
    Array.iteri (fun p w -> if w > cap && !r < 0 then r := p) pw;
    !r
  in
  let guard = ref (4 * n) in
  let rec fix () =
    let p = overweight () in
    if p >= 0 && !guard > 0 then begin
      decr guard;
      (* Cheapest vertex of part p to evict: maximize (external best conn -
         internal conn) over destinations with room. *)
      let best = ref None in
      for v = 0 to n - 1 do
        if a.(v) = p then begin
          let vw = Wgraph.vertex_weight g v in
          let conn = connections g a v in
          let internal = Option.value (List.assoc_opt p conn) ~default:0.0 in
          for q = 0 to k - 1 do
            if q <> p && pw.(q) + vw <= cap then begin
              let ext = Option.value (List.assoc_opt q conn) ~default:0.0 in
              let gain = ext -. internal in
              match !best with
              | Some (_, _, g', _) when g' >= gain -> ()
              | _ -> best := Some (v, q, gain, vw)
            end
          done
        end
      done;
      match !best with
      | None -> () (* no destination has room; leave for validate to flag *)
      | Some (v, q, _, vw) ->
          a.(v) <- q;
          pw.(p) <- pw.(p) - vw;
          pw.(q) <- pw.(q) + vw;
          fix ()
    end
  in
  fix ()

let initial_partition ~rng ~cap ~k g =
  let n = Wgraph.n_vertices g in
  let total = Wgraph.total_vertex_weight g in
  let target = (total + k - 1) / k in
  let a = Array.make n (-1) in
  let pw = Array.make k 0 in
  let order = Array.init n (fun i -> i) in
  Prng.shuffle rng order;
  let cursor = ref 0 in
  let next_unassigned () =
    while !cursor < n && a.(order.(!cursor)) >= 0 do
      incr cursor
    done;
    if !cursor < n then Some order.(!cursor) else None
  in
  let assign v p =
    a.(v) <- p;
    pw.(p) <- pw.(p) + Wgraph.vertex_weight g v
  in
  (* Grow parts 0..k-1 by greedy region growing up to the target weight. *)
  for p = 0 to k - 1 do
    match next_unassigned () with
    | None -> ()
    | Some seed ->
        let frontier = Heap.Indexed.create n in
        let bump v w =
          if a.(v) < 0 then
            let prev = try Heap.Indexed.priority frontier v with Not_found -> 0.0 in
            Heap.Indexed.adjust frontier v (prev +. w)
        in
        assign seed p;
        Wgraph.iter_neighbors g seed bump;
        let continue = ref true in
        while !continue && pw.(p) < target do
          match Heap.Indexed.pop_max frontier with
          | None -> continue := false (* component exhausted; stay compact *)
          | Some (v, _) ->
              if a.(v) < 0 && pw.(p) + Wgraph.vertex_weight g v <= cap then begin
                assign v p;
                Wgraph.iter_neighbors g v bump
              end
        done
  done;
  (* Leftovers: most-connected part with room, else the lightest part with
     room, else the lightest overall (repaired or flagged later). *)
  for i = 0 to n - 1 do
    let v = order.(i) in
    if a.(v) < 0 then begin
      let vw = Wgraph.vertex_weight g v in
      let conn = connections g a v in
      let best = ref (-1) and best_w = ref neg_infinity in
      List.iter
        (fun (p, w) ->
          if p >= 0 && pw.(p) + vw <= cap && w > !best_w then begin
            best := p;
            best_w := w
          end)
        conn;
      if !best < 0 then begin
        let lightest_with_room = ref (-1) in
        for p = 0 to k - 1 do
          if
            pw.(p) + vw <= cap
            && (!lightest_with_room < 0 || pw.(p) < pw.(!lightest_with_room))
          then lightest_with_room := p
        done;
        best :=
          (if !lightest_with_room >= 0 then !lightest_with_room
           else begin
             let lightest = ref 0 in
             for p = 1 to k - 1 do
               if pw.(p) < pw.(!lightest) then lightest := p
             done;
             !lightest
           end)
      end;
      assign v !best
    end
  done;
  a

let multilevel_kway ~rng ?max_part_weight ~k g =
  if k < 1 then invalid_arg "Partition.multilevel_kway: k < 1";
  let total = Wgraph.total_vertex_weight g in
  (match max_part_weight with
  | Some cap when k * cap < total ->
      invalid_arg "Partition.multilevel_kway: infeasible size cap"
  | _ -> ());
  let n = Wgraph.n_vertices g in
  if k = 1 then Array.make n 0
  else begin
    let cap = match max_part_weight with Some c -> c | None -> default_cap g ~k in
    let coarse_enough m = m <= max (8 * k) 64 in
    let rec ml g =
      let m = Wgraph.n_vertices g in
      if coarse_enough m then begin
        let a = initial_partition ~rng ~cap ~k g in
        ignore (refine g ~k ~max_part_weight:cap a);
        a
      end
      else begin
        let cg, cmap = Coarsen.coarsen ~rng g in
        (* Matching can stall on star-like graphs; bail out to the initial
           partitioner rather than recurse without progress. *)
        if Wgraph.n_vertices cg * 100 > m * 97 then begin
          let a = initial_partition ~rng ~cap ~k g in
          ignore (refine g ~k ~max_part_weight:cap a);
          a
        end
        else begin
          let ca = ml cg in
          let a = Array.init m (fun v -> ca.(cmap.(v))) in
          ignore (refine g ~k ~max_part_weight:cap a);
          a
        end
      end
    in
    let a = ml g in
    (match max_part_weight with Some cap -> repair g ~k ~cap a | None -> ());
    a
  end

let bisect ~rng ?max_part_weight g =
  multilevel_kway ~rng ?max_part_weight ~k:2 g
