(* Cross-module reference index and call graph for the whole-program
   passes (Effects, Layering, Deadcode).

   Built purely from Parsetrees — no typing environment — so resolution
   is name-based and follows this repo's conventions:

     lib/<dir>/<name>.ml        defines  Lazyctrl_<dir>.<Name>
     bin|bench|examples/<x>.ml  defines  a standalone module <X>

   A raw identifier path like [Proto.Ring.neighbors] is resolved against
   the scope it appears in: explicit [Lazyctrl_*] prefixes are absolute;
   [open]ed libraries, file-local module aliases ([module Det =
   Lazyctrl_util.Det]) and sibling modules of the same library provide
   the remaining candidates, in that order.  Where the analysis cannot
   resolve a name it errs on the side of *more* references (deadcode
   stays conservative) and *fewer* call edges (effects stay precise). *)

open Parsetree

type ref_kind = Value | Type | Module | Open

type fref = { r_path : string list; r_line : int; r_col : int; r_kind : ref_kind }

type def = {
  d_file : string;
  d_id : string;  (* dotted fully-qualified id, e.g. Lazyctrl_switch.Proto.mac_key *)
  d_qual : string list;
  d_line : int;
  d_col : int;
  d_span : (int * int) * (int * int);  (* start/end (line, col) of the binding *)
  d_refs : (string list * int * int) list;  (* raw value-ident paths in the body *)
  d_opens : string list list;  (* opens in scope at the def, innermost first *)
  d_encl : string list list;  (* enclosing module quals, innermost first *)
}

type finfo = {
  f_file : string;
  f_lib : string option;  (* lib dir name for lib/<dir>/... files *)
  f_mod : string;
  f_aux : bool;  (* reference-only file (test/): counts uses, yields no findings *)
  f_opens : string list list;  (* toplevel opens, latest first *)
  f_aliases : (string * string list) list;  (* module alias -> absolutized target *)
  f_refs : fref list;  (* every longident with a location, for layering *)
  f_defs : def list;
  f_uses : string list list;  (* modules used opaquely: functor args, includes, packs *)
  f_notes : string list;  (* unresolved constructs, deduplicated per file *)
}

type t = {
  files : finfo list;  (* sorted by path *)
  lib_modules : (string * string list) list;  (* lib dir -> sorted module names *)
  def_tbl : (string, def) Hashtbl.t;
  def_ids : string list;  (* sorted *)
  usage_tbl : (string, (string, unit) Hashtbl.t) Hashtbl.t;  (* id -> ref'ing files *)
  module_use_tbl : (string, (string, unit) Hashtbl.t) Hashtbl.t;  (* "W.Mod" -> files *)
  edges : (string, string list) Hashtbl.t;  (* def id -> sorted callee def ids *)
}

(* --- source mapping -------------------------------------------------------- *)

let has_prefix ~prefix s =
  let lp = String.length prefix in
  String.length s >= lp && String.equal (String.sub s 0 lp) prefix

let wrapper_prefix = "Lazyctrl_"

let wrapper_of_lib d = wrapper_prefix ^ d

let lib_of_wrapper m =
  if has_prefix ~prefix:wrapper_prefix m then
    Some (String.sub m (String.length wrapper_prefix)
            (String.length m - String.length wrapper_prefix))
  else None

let module_name_of_path rel =
  Filename.basename rel |> Filename.remove_extension |> String.capitalize_ascii

let lib_of_path rel =
  match String.split_on_char '/' rel with
  | "lib" :: d :: _ :: _ -> Some d
  | _ -> None

(* A path tagged with the start (line, col) of [loc]. *)
let located p loc = (p, Parse_ml.line_of loc, Parse_ml.col_of loc)

(* --- collection ------------------------------------------------------------ *)

type cstate = {
  cs_root : string list;  (* [Lazyctrl_x; Mod] or [Mod] *)
  mutable cs_opens : string list list;
  mutable cs_aliases : (string * string list) list;
  mutable cs_refs : fref list;
  mutable cs_defs : def list;
  mutable cs_uses : string list list;
  mutable cs_notes : string list;
      (* constructs this name-based index cannot fully resolve *)
}

let rec pattern_vars p =
  match p.ppat_desc with
  | Ppat_var { txt; _ } -> [ txt ]
  | Ppat_alias (p, { txt; _ }) -> txt :: pattern_vars p
  | Ppat_constraint (p, _) | Ppat_lazy p | Ppat_exception p | Ppat_open (_, p)
    ->
      pattern_vars p
  | Ppat_tuple ps | Ppat_array ps -> List.concat_map pattern_vars ps
  | Ppat_record (fields, _) ->
      List.concat_map (fun (_, p) -> pattern_vars p) fields
  | Ppat_construct (_, Some (_, p)) -> pattern_vars p
  | Ppat_variant (_, Some p) -> pattern_vars p
  | Ppat_or (a, b) -> pattern_vars a @ pattern_vars b
  | _ -> []

(* Module idents appearing anywhere inside a module expression (functor
   applications, packed modules): used opaquely, so Deadcode treats every
   export of the named module as referenced. *)
let rec module_idents me =
  match me.pmod_desc with
  | Pmod_ident { txt; _ } -> (
      match Parse_ml.flatten_longident txt with Some p -> [ p ] | None -> [])
  | Pmod_apply (a, b) -> module_idents a @ module_idents b
  | Pmod_constraint (m, _) -> module_idents m
  | Pmod_functor (_, m) -> module_idents m
  | _ -> []

(* Everything referenced inside an expression body.  Local [let open M in]
   scopes are over-approximated to the whole body. *)
type body = {
  b_vrefs : (string list * int * int) list;
  b_trefs : (string list * int * int) list;
  b_opens : (string list * int * int) list;
  b_uses : string list list;
}

let collect_body ?(note = fun (_ : string) -> ()) e =
  let vrefs = ref [] in
  let trefs = ref [] in
  let opens = ref [] in
  let uses = ref [] in
  (* Local [let module M = ...] bindings, innermost first.  References
     through the bound name are rewritten to the binding's target (the
     functor head for applications, mirroring the structure-level
     [module T = F.Make(X)] alias), so those call edges survive instead
     of being dropped silently. *)
  let aliases = ref [] in
  let rewrite p =
    match p with
    | head :: rest -> (
        match List.assoc_opt head !aliases with
        | Some target -> target @ rest
        | None -> p)
    | [] -> p
  in
  let rec local_module_head me =
    match me.pmod_desc with
    | Pmod_ident { txt; _ } -> Parse_ml.flatten_longident txt
    | Pmod_apply (f, _) | Pmod_apply_unit f | Pmod_constraint (f, _) ->
        local_module_head f
    | _ -> None
  in
  let expr (it : Ast_iterator.iterator) e =
    match e.pexp_desc with
    | Pexp_letmodule (name, me, body) ->
        uses := List.map rewrite (module_idents me) @ !uses;
        Ast_iterator.default_iterator.module_expr it me;
        (match (name.txt, local_module_head me) with
        | Some n, Some target ->
            aliases := (n, rewrite target) :: !aliases;
            it.expr it body;
            aliases := List.tl !aliases
        | Some n, None ->
            note
              (Printf.sprintf
                 "let module %s binds a non-ident module expression; \
                  references through %s are tracked as opaque uses only"
                 n n);
            it.expr it body
        | None, _ -> it.expr it body)
    | _ ->
        (match e.pexp_desc with
        | Pexp_ident { txt; _ } -> (
            match Parse_ml.flatten_longident txt with
            | Some p ->
                vrefs := located (rewrite p) e.pexp_loc :: !vrefs
            | None -> ())
        | Pexp_open (od, _) -> (
            match od.popen_expr.pmod_desc with
            | Pmod_ident { txt; _ } -> (
                match Parse_ml.flatten_longident txt with
                | Some p ->
                    opens := located (rewrite p) od.popen_loc :: !opens
                | None -> ())
            | _ -> ())
        | Pexp_pack me -> uses := List.map rewrite (module_idents me) @ !uses
        | _ -> ());
        Ast_iterator.default_iterator.expr it e
  in
  let typ (it : Ast_iterator.iterator) ty =
    (match ty.ptyp_desc with
    | Ptyp_constr ({ txt; _ }, _) -> (
        match Parse_ml.flatten_longident txt with
        | Some p ->
            trefs := located p ty.ptyp_loc :: !trefs
        | None -> ())
    | _ -> ());
    Ast_iterator.default_iterator.typ it ty
  in
  let iterator = { Ast_iterator.default_iterator with expr; typ } in
  iterator.expr iterator e;
  {
    b_vrefs = List.rev !vrefs;
    b_trefs = List.rev !trefs;
    b_opens = !opens;
    b_uses = List.rev !uses;
  }

(* Type references inside type declarations / extensions, for layering. *)
let collect_type_refs push item =
  let typ (it : Ast_iterator.iterator) ty =
    (match ty.ptyp_desc with
    | Ptyp_constr ({ txt; _ }, _) -> (
        match Parse_ml.flatten_longident txt with
        | Some p -> push (located p ty.ptyp_loc)
        | None -> ())
    | _ -> ());
    Ast_iterator.default_iterator.typ it ty
  in
  let iterator = { Ast_iterator.default_iterator with typ } in
  iterator.structure_item iterator item

(* Absolutize a module path against the current scope: explicit wrapper
   prefixes stay, aliases expand, sibling modules gain the wrapper. *)
let absolutize cs ~sibling_exists path =
  match path with
  | [] -> None
  | head :: rest -> (
      match lib_of_wrapper head with
      | Some _ -> Some path
      | None -> (
          match List.assoc_opt head cs.cs_aliases with
          | Some target -> Some (target @ rest)
          | None -> (
              match cs.cs_root with
              | w :: _ when sibling_exists head -> Some (w :: path)
              | _ -> None)))

let mk_fref kind (p, line, col) =
  { r_path = p; r_line = line; r_col = col; r_kind = kind }

let rec walk_items cs ~lib_siblings (modpath : string list) items =
  let encl_of () =
    (* innermost first: root @ modpath, root @ (drop-last modpath), ..., root *)
    let rec all_prefixes path =
      match path with
      | [] -> [ [] ]
      | _ ->
          path
          :: all_prefixes
               (List.filteri (fun i _ -> i < List.length path - 1) path)
    in
    List.map (fun p -> cs.cs_root @ p) (all_prefixes modpath)
  in
  let add_def ~names ~loc ~(body : body option) =
    let line = Parse_ml.line_of loc and col = Parse_ml.col_of loc in
    let span_end =
      (loc.Location.loc_end.pos_lnum,
       loc.Location.loc_end.pos_cnum - loc.Location.loc_end.pos_bol)
    in
    let refs, opens =
      match body with
      | Some b ->
          (b.b_vrefs, List.map (fun (p, _, _) -> p) b.b_opens @ cs.cs_opens)
      | None -> ([], cs.cs_opens)
    in
    List.iter
      (fun name ->
        let qual = cs.cs_root @ modpath @ [ name ] in
        cs.cs_defs <-
          {
            d_file = "";
            d_id = String.concat "." qual;
            d_qual = qual;
            d_line = line;
            d_col = col;
            d_span = ((line, col), span_end);
            d_refs = refs;
            d_opens = opens;
            d_encl = encl_of ();
          }
          :: cs.cs_defs)
      names
  in
  List.iter
    (fun item ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) ->
          List.iter
            (fun vb ->
              let note s = cs.cs_notes <- s :: cs.cs_notes in
              let body = collect_body ~note vb.pvb_expr in
              cs.cs_refs <-
                List.map (mk_fref Value) body.b_vrefs
                @ List.map (mk_fref Type) body.b_trefs
                @ List.map (mk_fref Open) body.b_opens
                @ cs.cs_refs;
              cs.cs_uses <- body.b_uses @ cs.cs_uses;
              let names =
                match pattern_vars vb.pvb_pat with
                | [] ->
                    [ Printf.sprintf "__init_%d" (Parse_ml.line_of vb.pvb_loc) ]
                | ns -> ns
              in
              add_def ~names ~loc:vb.pvb_loc ~body:(Some body))
            vbs
      | Pstr_eval (e, _) ->
          let note s = cs.cs_notes <- s :: cs.cs_notes in
          let body = collect_body ~note e in
          cs.cs_refs <-
            List.map (mk_fref Value) body.b_vrefs
            @ List.map (mk_fref Type) body.b_trefs
            @ List.map (mk_fref Open) body.b_opens
            @ cs.cs_refs;
          cs.cs_uses <- body.b_uses @ cs.cs_uses;
          add_def
            ~names:
              [ Printf.sprintf "__init_%d" (Parse_ml.line_of item.pstr_loc) ]
            ~loc:item.pstr_loc ~body:(Some body)
      | Pstr_primitive vd ->
          add_def ~names:[ vd.pval_name.txt ] ~loc:vd.pval_loc ~body:None
      | Pstr_open od -> (
          match od.popen_expr.pmod_desc with
          | Pmod_ident { txt; _ } -> (
              match Parse_ml.flatten_longident txt with
              | Some p ->
                  cs.cs_opens <- p :: cs.cs_opens;
                  cs.cs_refs <-
                    mk_fref Open (located p od.popen_loc) :: cs.cs_refs
              | None -> ())
          | _ -> ())
      | Pstr_module mb ->
          let name = Option.value mb.pmb_name.txt ~default:"_" in
          walk_module cs ~lib_siblings modpath name mb.pmb_expr
      | Pstr_recmodule mbs ->
          List.iter
            (fun mb ->
              let name = Option.value mb.pmb_name.txt ~default:"_" in
              walk_module cs ~lib_siblings modpath name mb.pmb_expr)
            mbs
      | Pstr_include incl -> (
          match incl.pincl_mod.pmod_desc with
          | Pmod_structure items -> walk_items cs ~lib_siblings modpath items
          | _ ->
              List.iter
                (fun p ->
                  cs.cs_uses <- p :: cs.cs_uses;
                  cs.cs_refs <-
                    mk_fref Module (located p incl.pincl_loc) :: cs.cs_refs)
                (module_idents incl.pincl_mod))
      | Pstr_type _ | Pstr_typext _ | Pstr_exception _ ->
          collect_type_refs
            (fun r -> cs.cs_refs <- mk_fref Type r :: cs.cs_refs)
            item
      | _ -> ())
    items

and walk_module cs ~lib_siblings modpath name mexpr =
  match mexpr.pmod_desc with
  | Pmod_constraint (m, _) -> walk_module cs ~lib_siblings modpath name m
  | Pmod_ident { txt; _ } -> (
      match Parse_ml.flatten_longident txt with
      | Some p ->
          let sibling_exists n =
            List.exists (String.equal n) (Lazy.force lib_siblings)
          in
          let target =
            Option.value (absolutize cs ~sibling_exists p) ~default:p
          in
          cs.cs_aliases <- (name, target) :: cs.cs_aliases;
          cs.cs_refs <- mk_fref Module (located p mexpr.pmod_loc) :: cs.cs_refs
      | None -> ())
  | Pmod_structure items ->
      let saved_opens = cs.cs_opens and saved_aliases = cs.cs_aliases in
      walk_items cs ~lib_siblings (modpath @ [ name ]) items;
      cs.cs_opens <- saved_opens;
      cs.cs_aliases <- saved_aliases
  | Pmod_functor (_, body) ->
      walk_module cs ~lib_siblings modpath name body
  | Pmod_apply _ | Pmod_apply_unit _ ->
      (* every named module stays opaquely used (deadcode conservative);
         additionally alias the binding to the functor's own path, so
         [module T = F.Make(X)] lets [T.op] resolve to [F.Make.op] defs
         and the functor body's call edges survive the application *)
      List.iter
        (fun p ->
          cs.cs_uses <- p :: cs.cs_uses;
          cs.cs_refs <- mk_fref Module (located p mexpr.pmod_loc) :: cs.cs_refs)
        (module_idents mexpr);
      let rec functor_head me =
        match me.pmod_desc with
        | Pmod_apply (f, _) | Pmod_apply_unit f | Pmod_constraint (f, _) ->
            functor_head f
        | Pmod_ident { txt; _ } -> Parse_ml.flatten_longident txt
        | _ -> None
      in
      (match functor_head mexpr with
      | Some p ->
          let sibling_exists n =
            List.exists (String.equal n) (Lazy.force lib_siblings)
          in
          let target =
            Option.value (absolutize cs ~sibling_exists p) ~default:p
          in
          cs.cs_aliases <- (name, target) :: cs.cs_aliases
      | None ->
          cs.cs_notes <-
            (Printf.sprintf
               "functor application bound to %s has a non-ident head; \
                references through %s are tracked as opaque uses only"
               name name)
            :: cs.cs_notes)
  | Pmod_unpack e ->
      (* first-class module: the packed value's identity is dynamic, but
         the expression's own references still count (deadcode stays
         conservative), and the binding is noted as unresolved *)
      let b =
        collect_body ~note:(fun s -> cs.cs_notes <- s :: cs.cs_notes) e
      in
      List.iter
        (fun r -> cs.cs_refs <- mk_fref Value r :: cs.cs_refs)
        b.b_vrefs;
      cs.cs_uses <- b.b_uses @ cs.cs_uses;
      cs.cs_notes <-
        (Printf.sprintf
           "first-class module unpacked into %s; its contents cannot be \
            resolved by name, references through %s are dropped"
           name name)
        :: cs.cs_notes
  | Pmod_extension _ ->
      cs.cs_notes <-
        (Printf.sprintf
           "extension node bound to module %s is not resolved; references \
            through %s are dropped"
           name name)
        :: cs.cs_notes

let collect_file ~aux ~lib_modules (file, structure) =
  let lib = lib_of_path file in
  let modname = module_name_of_path file in
  let root =
    match lib with Some d -> [ wrapper_of_lib d; modname ] | None -> [ modname ]
  in
  let cs =
    {
      cs_root = root;
      cs_opens = [];
      cs_aliases = [];
      cs_refs = [];
      cs_defs = [];
      cs_uses = [];
      cs_notes = [];
    }
  in
  let lib_siblings =
    lazy
      (match lib with
      | Some d -> ( match List.assoc_opt d lib_modules with
                    | Some ms -> ms
                    | None -> [])
      | None -> [])
  in
  walk_items cs ~lib_siblings [] structure;
  {
    f_file = file;
    f_lib = lib;
    f_mod = modname;
    f_aux = aux;
    f_opens = cs.cs_opens;
    f_aliases = cs.cs_aliases;
    f_refs = List.rev cs.cs_refs;
    f_defs = List.rev_map (fun d -> { d with d_file = file }) cs.cs_defs;
    f_uses = List.rev cs.cs_uses;
    f_notes = List.sort_uniq String.compare cs.cs_notes;
  }

(* --- resolution ------------------------------------------------------------ *)

(* Global alias map: (Wrapper.Mod.Alias) -> absolutized target, so a
   reference through a re-exported alias (e.g. Proto.Message.x where
   [module Message = Lazyctrl_openflow.Message]) credits the real owner. *)
let global_aliases files =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun fi ->
      match fi.f_lib with
      | None -> ()
      | Some d ->
          List.iter
            (fun (name, target) ->
              match target with
              | head :: _ when Option.is_some (lib_of_wrapper head) ->
                  let key =
                    String.concat "." [ wrapper_of_lib d; fi.f_mod; name ]
                  in
                  if not (Hashtbl.mem tbl key) then Hashtbl.add tbl key target
              | _ -> ())
            fi.f_aliases)
    files;
  tbl

let rewrite_alias aliases path =
  match path with
  | w :: m :: a :: rest -> (
      match Hashtbl.find_opt aliases (String.concat "." [ w; m; a ]) with
      | Some target -> target @ rest
      | None -> path)
  | _ -> path

(* Candidate absolute interpretations of [raw], best first. *)
let candidates_in t ~aliases ~file_aliases ~opens ~encl raw =
  let lib_has_module d m =
    match List.assoc_opt d t.lib_modules with
    | Some ms -> List.exists (String.equal m) ms
    | None -> false
  in
  let absolutize_open o =
    match o with
    | head :: _ when Option.is_some (lib_of_wrapper head) -> Some o
    | head :: rest -> (
        match List.assoc_opt head file_aliases with
        | Some (th :: _ as target) when Option.is_some (lib_of_wrapper th) ->
            Some (target @ rest)
        | _ -> (
            (* sibling module of the enclosing library *)
            let via_encl =
              match encl with
              | (w :: _) :: _ -> (
                  match lib_of_wrapper w with
                  | Some d when lib_has_module d head -> Some (w :: o)
                  | _ -> None)
              | _ -> None
            in
            match via_encl with
            | Some _ -> via_encl
            | None ->
                (* the open's own head may arrive through another,
                   wrapper-level open: [open Lazyctrl_sim] ... [Time.(...)] *)
                List.find_map
                  (fun o2 ->
                    match o2 with
                    | [ w ] -> (
                        match lib_of_wrapper w with
                        | Some d when lib_has_module d head -> Some (w :: o)
                        | _ -> None)
                    | _ -> None)
                  opens))
    | [] -> None
  in
  (* a bare head naming a sibling module of the enclosing library — the
     dominant intra-library reference form under dune wrapping *)
  let sibling path =
    match (path, encl) with
    | head :: _, (w :: _) :: _ -> (
        match lib_of_wrapper w with
        | Some d when lib_has_module d head -> [ w :: path ]
        | _ -> [])
    | _ -> []
  in
  let gen path =
    match path with
    | [] -> []
    | head :: _ when Option.is_some (lib_of_wrapper head) -> [ path ]
    | _ ->
        List.filter_map
          (fun o -> Option.map (fun ao -> ao @ path) (absolutize_open o))
          opens
        @ List.map (fun e -> e @ path) encl
        @ sibling path
  in
  let expanded =
    match raw with
    | head :: rest -> (
        match List.assoc_opt head file_aliases with
        | Some target -> [ target @ rest ]
        | None -> [])
    | [] -> []
  in
  List.concat_map gen (raw :: expanded)
  |> List.map (rewrite_alias aliases)

(* A candidate is plausible when its head two segments name a module we
   actually scanned; deadcode marks all plausible targets as used. *)
let plausible t path =
  match path with
  | w :: m :: _ -> (
      match lib_of_wrapper w with
      | Some d -> (
          match List.assoc_opt d t.lib_modules with
          | Some ms -> List.exists (String.equal m) ms
          | None -> false)
      | None -> false)
  | _ -> false

(* --- build ----------------------------------------------------------------- *)

let build ~files ~aux =
  let files = List.sort (fun (a, _) (b, _) -> String.compare a b) files in
  let aux = List.sort (fun (a, _) (b, _) -> String.compare a b) aux in
  (* Two passes: module inventory first, so sibling resolution works no
     matter the parse order. *)
  let lib_modules =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun (file, _) ->
        match lib_of_path file with
        | Some d ->
            let prev =
              match Hashtbl.find_opt tbl d with Some l -> l | None -> []
            in
            Hashtbl.replace tbl d (module_name_of_path file :: prev)
        | None -> ())
      files;
    let dirs =
      List.filter_map (fun (file, _) -> lib_of_path file) files
      |> List.sort_uniq String.compare
    in
    List.map
      (fun d ->
        let ms =
          match Hashtbl.find_opt tbl d with Some l -> l | None -> []
        in
        (d, List.sort_uniq String.compare ms))
      dirs
  in
  let finfos =
    List.map (collect_file ~aux:false ~lib_modules) files
    @ List.map (collect_file ~aux:true ~lib_modules) aux
  in
  let def_tbl = Hashtbl.create 512 in
  let def_ids = ref [] in
  List.iter
    (fun fi ->
      if not fi.f_aux then
        List.iter
          (fun d ->
            if not (Hashtbl.mem def_tbl d.d_id) then begin
              Hashtbl.add def_tbl d.d_id d;
              def_ids := d.d_id :: !def_ids
            end)
          fi.f_defs)
    finfos;
  let t =
    {
      files = finfos;
      lib_modules;
      def_tbl;
      def_ids = List.sort String.compare !def_ids;
      usage_tbl = Hashtbl.create 1024;
      module_use_tbl = Hashtbl.create 64;
      edges = Hashtbl.create 512;
    }
  in
  let aliases = global_aliases finfos in
  let mark tbl key file =
    let set =
      match Hashtbl.find_opt tbl key with
      | Some s -> s
      | None ->
          let s = Hashtbl.create 4 in
          Hashtbl.add tbl key s;
          s
    in
    Hashtbl.replace set file ()
  in
  List.iter
    (fun fi ->
      (* opaque module uses *)
      List.iter
        (fun use ->
          let cands =
            candidates_in t ~aliases ~file_aliases:fi.f_aliases
              ~opens:fi.f_opens
              ~encl:
                [ (match fi.f_lib with
                  | Some d -> [ wrapper_of_lib d ]
                  | None -> [ fi.f_mod ]) ]
              use
          in
          List.iter
            (fun c ->
              match c with
              | w :: m :: _ when plausible t [ w; m ] ->
                  mark t.module_use_tbl (String.concat "." [ w; m ]) fi.f_file
              | _ -> ())
            cands)
        fi.f_uses;
      (* value references: usage marking (all plausible candidates) and
         call edges (first matching def) *)
      List.iter
        (fun d ->
          let callees = ref [] in
          List.iter
            (fun (raw, _, _) ->
              let cands =
                candidates_in t ~aliases ~file_aliases:fi.f_aliases
                  ~opens:d.d_opens ~encl:d.d_encl raw
              in
              List.iter
                (fun c ->
                  if plausible t c then
                    mark t.usage_tbl (String.concat "." c) fi.f_file)
                cands;
              let rec first_def = function
                | [] -> None
                | c :: rest ->
                    let id = String.concat "." c in
                    if Hashtbl.mem def_tbl id then Some id else first_def rest
              in
              match first_def cands with
              | Some id when not (String.equal id d.d_id) ->
                  callees := id :: !callees
              | _ -> ())
            d.d_refs;
          if not fi.f_aux then
            Hashtbl.replace t.edges d.d_id
              (List.sort_uniq String.compare !callees))
        fi.f_defs)
    finfos;
  t

(* --- queries --------------------------------------------------------------- *)

let def_ids t = t.def_ids
let find_def t id = Hashtbl.find_opt t.def_tbl id

let callees t id =
  match Hashtbl.find_opt t.edges id with Some l -> l | None -> []

let files t = t.files
let modules_of_lib t d =
  match List.assoc_opt d t.lib_modules with Some ms -> ms | None -> []

let defs_of_file t file =
  List.concat_map
    (fun fi -> if String.equal fi.f_file file then fi.f_defs else [])
    t.files

(* Innermost def whose source span contains (line, col). *)
let def_spanning t ~file ~line ~col =
  let contains ((sl, sc), (el, ec)) =
    (line > sl || (line = sl && col >= sc))
    && (line < el || (line = el && col <= ec))
  in
  let span_size ((sl, _), (el, _)) = el - sl in
  List.fold_left
    (fun best d ->
      if contains d.d_span then
        match best with
        | Some b when span_size b.d_span <= span_size d.d_span -> best
        | _ -> Some d
      else best)
    None (defs_of_file t file)

(* Files (other than the definition site) that reference the given
   qualified id, either precisely or through an opaque use of its module. *)
let referencing_files t ~qual ~owner_file =
  let id = String.concat "." qual in
  let out = ref [] in
  let add_from tbl key =
    match Hashtbl.find_opt tbl key with
    | None -> ()
    | Some set ->
        List.iter
          (fun fi ->
            if
              Hashtbl.mem set fi.f_file
              && not (String.equal fi.f_file owner_file)
            then out := fi.f_file :: !out)
          t.files
  in
  add_from t.usage_tbl id;
  (match qual with
  | w :: m :: _ :: _ -> add_from t.module_use_tbl (String.concat "." [ w; m ])
  | _ -> ());
  List.sort_uniq String.compare !out
