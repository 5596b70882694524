open Lazyctrl_net
open Lazyctrl_graph

type t = {
  assignment : int array; (* switch -> dense group id *)
  groups : int list array; (* group -> members, ascending *)
}

let of_assignment raw =
  let n = Array.length raw in
  if n = 0 then invalid_arg "Grouping.of_assignment: empty";
  let dense = Hashtbl.create 16 in
  let next = ref 0 in
  let assignment =
    Array.map
      (fun label ->
        if label < 0 then invalid_arg "Grouping.of_assignment: negative label";
        match Hashtbl.find_opt dense label with
        | Some d -> d
        | None ->
            let d = !next in
            incr next;
            Hashtbl.add dense label d;
            d)
      raw
  in
  let groups = Array.make !next [] in
  for sw = n - 1 downto 0 do
    groups.(assignment.(sw)) <- sw :: groups.(assignment.(sw))
  done;
  { assignment; groups }

let singleton_groups ~n_switches = of_assignment (Array.init n_switches (fun i -> i))
let one_group ~n_switches = of_assignment (Array.make n_switches 0)

let n_switches t = Array.length t.assignment
let n_groups t = Array.length t.groups

let group_of t sw = Ids.Group_id.of_int t.assignment.(Ids.Switch_id.to_int sw)

let members t g =
  List.map Ids.Switch_id.of_int t.groups.(Ids.Group_id.to_int g)

let sizes t = Array.map List.length t.groups
let max_group_size t = Array.fold_left (fun acc m -> max acc (List.length m)) 0 t.groups
let assignment t = Array.copy t.assignment

let same_group t a b =
  t.assignment.(Ids.Switch_id.to_int a) = t.assignment.(Ids.Switch_id.to_int b)

let check_graph g t =
  if Wgraph.n_vertices g <> n_switches t then
    invalid_arg "Grouping: intensity graph size mismatch"

let inter_group_intensity g t =
  check_graph g t;
  Partition.edge_cut g t.assignment

let normalized_inter g t =
  check_graph g t;
  Partition.normalized_cut g t.assignment

let group_pair_intensity g t =
  check_graph g t;
  let acc = Hashtbl.create 64 in
  Wgraph.iter_edges g (fun u v w ->
      let gu = t.assignment.(u) and gv = t.assignment.(v) in
      if gu <> gv then begin
        let key = if gu < gv then (gu, gv) else (gv, gu) in
        Hashtbl.replace acc key (w +. Option.value (Hashtbl.find_opt acc key) ~default:0.0)
      end);
  Hashtbl.fold (fun (a, b) w l -> (a, b, w) :: l) acc []
  |> List.sort (fun (a1, b1, w1) (a2, b2, w2) ->
         (* Weight descending, then group pair: equal weights must not
            leave the order to hash-bucket layout. *)
         match Float.compare w2 w1 with
         | 0 -> (
             match Int.compare a1 a2 with 0 -> Int.compare b1 b2 | c -> c)
         | c -> c)
