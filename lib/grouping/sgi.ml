open Lazyctrl_graph
module Prng = Lazyctrl_util.Prng

let estimate_k ~n_switches ~limit = max 1 ((n_switches + limit - 1) / limit)

let ini_group ~rng ~limit ?k g =
  if limit < 1 then invalid_arg "Sgi.ini_group: limit < 1";
  let n = Wgraph.n_vertices g in
  let k = Option.value k ~default:(estimate_k ~n_switches:n ~limit) in
  if k * limit < n then invalid_arg "Sgi.ini_group: k too small for the size limit";
  let a = Partition.multilevel_kway ~rng ~max_part_weight:limit ~k g in
  Grouping.of_assignment a

let find_candidate_pair ?previous g grouping =
  let current = Grouping.group_pair_intensity g grouping in
  match previous with
  | None -> (
      match current with [] -> None | (a, b, _) :: _ -> Some (a, b))
  | Some prev_g ->
      let prev =
        Grouping.group_pair_intensity prev_g grouping
        |> List.fold_left
             (fun acc (a, b, w) ->
               Hashtbl.replace acc (a, b) w;
               acc)
             (Hashtbl.create 64)
      in
      let best = ref None in
      List.iter
        (fun (a, b, w) ->
          let old = Option.value (Hashtbl.find_opt prev (a, b)) ~default:0.0 in
          let delta = w -. old in
          match !best with
          | Some (_, _, d) when d >= delta -> ()
          | _ -> best := Some (a, b, delta))
        current;
      Option.map (fun (a, b, _) -> (a, b)) !best

let inc_update ~rng ~limit ?previous ~intensity grouping =
  match find_candidate_pair ?previous intensity grouping with
  | None -> None
  | Some (ga, gb) ->
      let a = Grouping.assignment grouping in
      let merged =
        Array.of_list
          (List.concat
             [
               List.map Lazyctrl_net.Ids.Switch_id.to_int
                 (Grouping.members grouping (Lazyctrl_net.Ids.Group_id.of_int ga));
               List.map Lazyctrl_net.Ids.Switch_id.to_int
                 (Grouping.members grouping (Lazyctrl_net.Ids.Group_id.of_int gb));
             ])
      in
      let sub, mapping = Wgraph.induced intensity merged in
      (* Minimum-communication re-split of the merged pair under the size
         cap; when the merged pair fits inside the limit, collapse the two
         groups into one (maximizing laziness, as the paper prefers). *)
      let old_cut = Partition.edge_cut intensity a in
      let proposal =
        if Array.length merged <= limit then begin
          let a' = Array.copy a in
          Array.iter (fun sw -> a'.(sw) <- ga) merged;
          Some a'
        end
        else begin
          let split = Partition.bisect ~rng ~max_part_weight:limit sub in
          let a' = Array.copy a in
          Array.iteri
            (fun i sw -> a'.(sw) <- (if split.(i) = 0 then ga else gb))
            mapping;
          Some a'
        end
      in
      (match proposal with
      | None -> None
      | Some a' ->
          let new_cut = Partition.edge_cut intensity a' in
          if new_cut < old_cut then Some (Grouping.of_assignment a') else None)

(* Greedy maximal matching over group pairs, heaviest exchange first. *)
let disjoint_candidate_pairs g grouping =
  let used = Hashtbl.create 16 in
  Grouping.group_pair_intensity g grouping
  |> List.filter_map (fun (a, b, _) ->
         if Hashtbl.mem used a || Hashtbl.mem used b then None
         else begin
           Hashtbl.replace used a ();
           Hashtbl.replace used b ();
           Some (a, b)
         end)

(* Merge-and-split of one group pair as a pure subproblem: returns the new
   (sub-)assignment for the pair's switches, or None when nothing improved. *)
let resplit_pair ~rng ~limit ~intensity grouping (ga, gb) =
  let members gid =
    List.map Lazyctrl_net.Ids.Switch_id.to_int
      (Grouping.members grouping (Lazyctrl_net.Ids.Group_id.of_int gid))
  in
  let merged = Array.of_list (members ga @ members gb) in
  let sub, mapping = Wgraph.induced intensity merged in
  let old_cut =
    let a = Grouping.assignment grouping in
    let in_pair = Hashtbl.create 16 in
    Array.iter (fun sw -> Hashtbl.replace in_pair sw ()) merged;
    let cut = ref 0.0 in
    Wgraph.iter_edges intensity (fun u v w ->
        if
          Hashtbl.mem in_pair u && Hashtbl.mem in_pair v
          && a.(u) <> a.(v)
        then cut := !cut +. w);
    !cut
  in
  if Array.length merged <= limit then
    (* Collapsing the pair removes their mutual cut entirely. *)
    if old_cut > 0.0 then Some (merged, Array.make (Array.length merged) ga)
    else None
  else begin
    let split = Partition.bisect ~rng ~max_part_weight:limit sub in
    let new_cut =
      let cut = ref 0.0 in
      Wgraph.iter_edges sub (fun u v w ->
          if split.(u) <> split.(v) then cut := !cut +. w);
      !cut
    in
    if new_cut < old_cut then begin
      ignore mapping;
      Some (merged, Array.map (fun side -> if side = 0 then ga else gb) split)
    end
    else None
  end

let inc_update_batch ~rng ~limit ?(domains = 1) ~intensity grouping =
  match disjoint_candidate_pairs intensity grouping with
  | [] -> None
  | pairs ->
      (* A private, label-derived stream per pair keeps results identical
         whether subproblems run sequentially or on separate domains. *)
      let jobs =
        List.map
          (fun (ga, gb) ->
            let pair_rng = Prng.named rng (Printf.sprintf "pair-%d-%d" ga gb) in
            fun () -> resplit_pair ~rng:pair_rng ~limit ~intensity grouping (ga, gb))
          pairs
      in
      let results =
        if domains <= 1 then List.map (fun job -> job ()) jobs
        else begin
          (* Bounded fan-out: spawn in waves of [domains]. *)
          let rec waves acc = function
            | [] -> List.rev acc
            | jobs ->
                let rec take n = function
                  | [] -> ([], [])
                  | x :: rest when n > 0 ->
                      let batch, rem = take (n - 1) rest in
                      (x :: batch, rem)
                  | rest -> ([], rest)
                in
                let batch, rest = take domains jobs in
                let handles = List.map (fun job -> Domain.spawn job) batch in
                let got = List.map Domain.join handles in
                waves (List.rev_append got acc) rest
          in
          waves [] jobs
        end
      in
      let a = Array.copy (Grouping.assignment grouping) in
      let improved = ref false in
      List.iter
        (function
          | None -> ()
          | Some (switches, labels) ->
              improved := true;
              Array.iteri (fun i sw -> a.(sw) <- labels.(i)) switches)
        results;
      if !improved then Some (Grouping.of_assignment a) else None
