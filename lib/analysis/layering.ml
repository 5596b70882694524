(* The paper's control-plane separation (L002).

   The paper's control plane only stays "lazy" if the separation it
   describes is structural: edge switches forward intra-group traffic
   with purely local state (L-FIB/G-FIB) and talk to the central
   controller exclusively through the in-band [Proto] message grammar.
   Devolved-controller designs fail exactly when switches quietly lean
   on central state, so this pass turns the separation into a checked
   property rather than a convention.

   The dune library graph is enforced by the compiler
   ([implicit_transitive_deps false]): lib/switch does not list
   lazyctrl_controller, so it cannot name it.  What dune cannot express
   is which modules of a library another may use: [lib/controller] may
   reach into [Lazyctrl_switch] only through the [Proto] module —
   message construction and inspection — never through
   [Edge_switch]/[Lfib]/[Gfib] internals. *)

let target_of cg (fi : Callgraph.finfo) (r : Callgraph.fref) =
  (* (target lib dir, referenced module inside it if known) *)
  let expand path =
    match path with
    | head :: rest -> (
        match List.assoc_opt head fi.Callgraph.f_aliases with
        | Some target -> target @ rest
        | None -> path)
    | [] -> path
  in
  match expand r.Callgraph.r_path with
  | [] -> None
  | head :: rest -> (
      match Callgraph.lib_of_wrapper head with
      | Some d -> Some (d, match rest with m :: _ -> Some m | [] -> None)
      | None ->
          (* a bare module brought into scope by [open Lazyctrl_x] *)
          let from_open o =
            match o with
            | w :: _ -> (
                match Callgraph.lib_of_wrapper w with
                | Some d
                  when List.exists (String.equal head)
                         (Callgraph.modules_of_lib cg d) ->
                    Some (d, Some head)
                | _ -> None)
            | [] -> None
          in
          List.find_map from_open fi.Callgraph.f_opens)

let check cg =
  List.concat_map
    (fun (fi : Callgraph.finfo) ->
      match (fi.Callgraph.f_aux, fi.Callgraph.f_lib) with
      | false, Some "controller" ->
          List.filter_map
            (fun (r : Callgraph.fref) ->
              match target_of cg fi r with
              | Some ("switch", Some m) when not (String.equal m "Proto") ->
                  Some
                    (Finding.make ~file:fi.Callgraph.f_file
                       ~line:r.Callgraph.r_line ~col:r.Callgraph.r_col
                       ~rule:Rules.l_lazy_separation ~severity:Finding.Error
                       (Printf.sprintf
                          "lib/controller references Lazyctrl_switch.%s: the \
                           controller drives edge switches only through the \
                           Proto message grammar, not switch internals"
                          m))
              | _ -> None)
            fi.Callgraph.f_refs
      | _ -> [])
    (Callgraph.files cg)
  |> List.sort_uniq Finding.compare
