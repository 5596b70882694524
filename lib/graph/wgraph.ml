type t = {
  xadj : int array; (* n+1 offsets into adjncy *)
  adjncy : int array;
  adjwgt : float array;
  vwgt : int array;
  total_ew : float;
}

module Builder = struct
  type graph = t

  type t = {
    n : int;
    edges : (int * int, float) Hashtbl.t; (* key has u < v *)
    weights : int array;
  }

  let create ~n =
    if n < 0 then invalid_arg "Wgraph.Builder.create: negative size";
    { n; edges = Hashtbl.create (4 * n); weights = Array.make (max n 1) 1 }

  let check t v =
    if v < 0 || v >= t.n then invalid_arg "Wgraph.Builder: vertex out of range"

  let add_edge t u v w =
    check t u;
    check t v;
    if w < 0.0 then invalid_arg "Wgraph.Builder.add_edge: negative weight";
    if u <> v && w > 0.0 then begin
      let key = if u < v then (u, v) else (v, u) in
      let prev = Option.value (Hashtbl.find_opt t.edges key) ~default:0.0 in
      Hashtbl.replace t.edges key (prev +. w)
    end

  let set_vertex_weight t v w =
    check t v;
    if w <= 0 then invalid_arg "Wgraph.Builder.set_vertex_weight: non-positive";
    t.weights.(v) <- w

  let build t =
    (* Deterministic edge order: snapshot the edge table once, sorted. *)
    let edge_list =
      List.map
        (fun ((u, v), w) -> (u, v, w))
        (Lazyctrl_util.Det.bindings_sorted ~cmp:Lazyctrl_util.Det.pair_compare
           t.edges)
    in
    let deg = Array.make t.n 0 in
    List.iter
      (fun (u, v, _) ->
        deg.(u) <- deg.(u) + 1;
        deg.(v) <- deg.(v) + 1)
      edge_list;
    let xadj = Array.make (t.n + 1) 0 in
    for i = 0 to t.n - 1 do
      xadj.(i + 1) <- xadj.(i) + deg.(i)
    done;
    let m2 = xadj.(t.n) in
    let adjncy = Array.make m2 0 in
    let adjwgt = Array.make m2 0.0 in
    let cursor = Array.copy xadj in
    let total = ref 0.0 in
    List.iter
      (fun (u, v, w) ->
        adjncy.(cursor.(u)) <- v;
        adjwgt.(cursor.(u)) <- w;
        cursor.(u) <- cursor.(u) + 1;
        adjncy.(cursor.(v)) <- u;
        adjwgt.(cursor.(v)) <- w;
        cursor.(v) <- cursor.(v) + 1;
        total := !total +. w)
      edge_list;
    { xadj; adjncy; adjwgt; vwgt = Array.sub t.weights 0 t.n; total_ew = !total }
end

let n_vertices t = Array.length t.vwgt
let n_edges t = Array.length t.adjncy / 2
let vertex_weight t v = t.vwgt.(v)
let total_vertex_weight t = Array.fold_left ( + ) 0 t.vwgt
let total_edge_weight t = t.total_ew

let iter_neighbors t u f =
  for i = t.xadj.(u) to t.xadj.(u + 1) - 1 do
    f t.adjncy.(i) t.adjwgt.(i)
  done

let iter_edges t f =
  for u = 0 to n_vertices t - 1 do
    iter_neighbors t u (fun v w -> if u < v then f u v w)
  done

let induced t vs =
  let n' = Array.length vs in
  let index = Hashtbl.create n' in
  Array.iteri (fun i v -> Hashtbl.replace index v i) vs;
  let b = Builder.create ~n:n' in
  Array.iteri
    (fun i v ->
      Builder.set_vertex_weight b i (vertex_weight t v);
      iter_neighbors t v (fun u w ->
          match Hashtbl.find_opt index u with
          | Some j when i < j -> Builder.add_edge b i j w
          | _ -> ()))
    vs;
  (Builder.build b, vs)

let of_edges ~n edges =
  let b = Builder.create ~n in
  List.iter (fun (u, v, w) -> Builder.add_edge b u v w) edges;
  Builder.build b
