(* Protocol coverage (P002): every constructor of the in-band protocol
   type ([Proto.t]) must be named in a pattern somewhere in each dispatch
   module (edge switch and controller).  Wildcards do not count: the
   point is that adding a message constructor forces both dispatchers to
   take an explicit stance, even if that stance is "ignore" — a gap
   OCaml's exhaustiveness check cannot see behind a [| _ -> ()]. *)

open Parsetree

let last_component lid =
  match Parse_ml.flatten_longident lid with
  | Some path when not (List.is_empty path) ->
      Some (List.nth path (List.length path - 1))
  | _ -> None

let constructors_of_type ~type_name structure =
  let out = ref [] in
  List.iter
    (fun item ->
      match item.pstr_desc with
      | Pstr_type (_, decls) ->
          List.iter
            (fun decl ->
              if String.equal decl.ptype_name.txt type_name then
                match decl.ptype_kind with
                | Ptype_variant cds ->
                    List.iter
                      (fun cd -> out := cd.pcd_name.txt :: !out)
                      cds
                | _ -> ())
            decls
      | _ -> ())
    structure;
  List.rev !out

(* Every constructor named in any pattern of the structure. *)
let pattern_constructors structure =
  let seen = Hashtbl.create 64 in
  let pat (it : Ast_iterator.iterator) p =
    (match p.ppat_desc with
    | Ppat_construct (lid, _) -> (
        match last_component lid.Location.txt with
        | Some name -> Hashtbl.replace seen name ()
        | None -> ())
    | _ -> ());
    Ast_iterator.default_iterator.pat it p
  in
  let iterator = { Ast_iterator.default_iterator with pat } in
  iterator.structure iterator structure;
  seen

let check_coverage ?(type_name = "t") ~proto:(proto_file, proto_structure)
    ~handlers () =
  let ctors = constructors_of_type ~type_name proto_structure in
  if List.is_empty ctors then
    [
      Finding.make ~file:proto_file ~line:1 ~rule:Rules.p_proto_coverage
        ~severity:Finding.Error
        (Printf.sprintf "no variant type [%s] found in %s; the message \
                         grammar cannot be verified" type_name proto_file);
    ]
  else
    let findings = ref [] in
    List.iter
      (fun (handler_file, handler_structure) ->
        let handled = pattern_constructors handler_structure in
        List.iter
          (fun ctor ->
            if not (Hashtbl.mem handled ctor) then
              findings :=
                Finding.make ~file:handler_file ~line:1
                  ~rule:Rules.p_proto_coverage ~severity:Finding.Error
                  (Printf.sprintf
                     "protocol constructor %s.%s is never matched in %s; \
                      every message must be handled explicitly (wildcards \
                      do not count)"
                     type_name ctor handler_file)
                :: !findings)
          ctors)
      handlers;
    List.sort Finding.compare !findings
