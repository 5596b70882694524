(* Allocation-site inference over the Parsetree, for the H00x hot-path
   family (Hotpath).  Purely syntactic, like the rest of the lint: each
   site is a place where evaluating the expression allocates on the OCaml
   minor heap (H001 material), dispatches through a first-class function
   (H002), or uses exceptions for control flow (H003).  Sites are later
   attributed to their enclosing definition via [Callgraph.def_spanning]
   and filtered by reachability from the declared hot entries.

   Known blind spots, by construction (no type information):
   - partial application (closure built at runtime when a function is
     applied to fewer arguments than it takes) is invisible without
     arities — the dynamic cross-validation in Hotbudget is the backstop;
   - boxing done inside the stdlib (e.g. [Hashtbl.find_opt] wrapping the
     hit in [Some]) is equally invisible — same backstop, surfaced as an
     H004 calibration gap;
   - structure-level [let] bindings whose right-hand side is not a
     function run once at module initialization, so their allocations are
     not per-operation and are skipped entirely. *)

open Parsetree

type kind =
  | Closure  (** [fun]/[function] evaluated at runtime (captures its env) *)
  | Cons  (** constructor with a payload, including list cons *)
  | Tuple
  | Record
  | Array_lit
  | Ref  (** [ref e] *)
  | Str  (** string/bytes-allocating stdlib operation *)
  | Poly  (** polymorphic [compare]/[Hashtbl.hash] (H002) *)
  | Indirect  (** call through a record field or array element (H002) *)
  | Raise  (** [raise]/[raise_notrace] (H003) *)
  | Try  (** [try ... with] handler (H003) *)

type site = { s_kind : kind; s_line : int; s_col : int; s_desc : string }

let kind_name = function
  | Closure -> "closure"
  | Cons -> "constructor"
  | Tuple -> "tuple"
  | Record -> "record"
  | Array_lit -> "array literal"
  | Ref -> "ref cell"
  | Str -> "string/bytes"
  | Poly -> "polymorphic primitive"
  | Indirect -> "indirect call"
  | Raise -> "raise"
  | Try -> "try handler"

(* Sites that allocate per evaluation; the others are dispatch/control
   findings.  Only these count toward a probe's static allocation tally
   when Hotbudget decides whether a measured nonzero is a calibration
   gap. *)
let is_alloc = function
  | Closure | Cons | Tuple | Record | Array_lit | Ref | Str -> true
  | Poly | Indirect | Raise | Try -> false

let rule_of = function
  | Closure | Cons | Tuple | Record | Array_lit | Ref | Str ->
      Rules.h_hot_alloc
  | Poly | Indirect -> Rules.h_hot_indirect
  | Raise | Try -> Rules.h_hot_raise

let ident_path e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> Parse_ml.flatten_longident txt
  | _ -> None

let last_segment path = match List.rev path with s :: _ -> s | [] -> ""

let is_raise_path path =
  match path with
  | [ ("raise" | "raise_notrace") ]
  | [ "Stdlib"; ("raise" | "raise_notrace") ] ->
      true
  | _ -> false

let is_ref_path path =
  match path with [ "ref" ] | [ "Stdlib"; "ref" ] -> true | _ -> false

(* Stdlib entry points whose result is a fresh string/bytes/buffer; the
   list is the subset this codebase plausibly reaches, not an attempt at
   completeness. *)
let is_string_alloc_path path =
  let path = match path with "Stdlib" :: rest -> rest | _ -> path in
  match path with
  | [ "^" ] -> true
  | [ "Printf"; "sprintf" ] | [ "Format"; ("sprintf" | "asprintf") ] -> true
  | [ "String"; op ] ->
      List.exists (String.equal op)
        [
          "make"; "init"; "sub"; "concat"; "cat"; "map"; "mapi"; "trim";
          "escaped"; "uppercase_ascii"; "lowercase_ascii"; "capitalize_ascii";
          "split_on_char"; "of_bytes"; "to_bytes";
        ]
  | [ "Bytes"; op ] ->
      List.exists (String.equal op)
        [
          "create"; "make"; "init"; "copy"; "sub"; "cat"; "extend"; "concat";
          "of_string"; "to_string";
        ]
  | "Buffer" :: _ -> true
  | _ -> false

let is_poly_compare_path path =
  match path with
  | [ "compare" ] | [ "Stdlib"; "compare" ] | [ "Pervasives"; "compare" ] ->
      true
  | [ "Hashtbl"; ("hash" | "seeded_hash") ]
  | [ "Stdlib"; "Hashtbl"; ("hash" | "seeded_hash") ] ->
      true
  | _ -> false

let is_array_get_path path =
  match path with
  | [ "Array"; ("get" | "unsafe_get") ]
  | [ "Stdlib"; "Array"; ("get" | "unsafe_get") ] ->
      true
  | _ -> false

(* The flight recorder's documented discipline (DESIGN.md, lib/trace):
   event payloads are built only under an [if Tracer.enabled ...] guard,
   so untraced runs never evaluate them.  Allocation sites inside such a
   guard's then-branch are not hot-path allocations; the untraced
   packet-replay bench row keeps the guard itself honest. *)
let is_trace_guard cond =
  match cond.pexp_desc with
  | Pexp_apply (fn, _) -> (
      match ident_path fn with
      | Some path -> (
          match List.rev path with
          | "enabled" :: "Tracer" :: _ -> true
          | _ -> false)
      | None -> false)
  | _ -> false

let scan structure =
  let sites = ref [] in
  let push ~loc kind desc =
    sites :=
      {
        s_kind = kind;
        s_line = Parse_ml.line_of loc;
        s_col = Parse_ml.col_of loc;
        s_desc = desc;
      }
      :: !sites
  in
  let rec expr (it : Ast_iterator.iterator) e =
    match e.pexp_desc with
    | Pexp_ifthenelse (cond, then_, else_) when is_trace_guard cond ->
        it.expr it cond;
        ignore then_;
        Option.iter (it.expr it) else_
    | Pexp_apply (fn, args) when is_raise_arm fn ->
        (* one finding for the raise; the exception payload is part of it,
           so its own construct/alloc nodes are not double-counted *)
        let exn =
          match args with
          | (_, a) :: _ -> (
              match a.pexp_desc with
              | Pexp_construct ({ txt; _ }, _) -> (
                  match Parse_ml.flatten_longident txt with
                  | Some p -> " " ^ last_segment p
                  | None -> "")
              | _ -> "")
          | [] -> ""
        in
        push ~loc:e.pexp_loc Raise (Printf.sprintf "raise%s" exn)
    | Pexp_match ({ pexp_desc = Pexp_tuple comps; _ }, cases) ->
        (* [match (a, b) with ...] compiles to a multi-column match without
           building the tuple — scan components and arms, flag nothing. *)
        List.iter (it.expr it) comps;
        List.iter
          (fun c ->
            Option.iter (it.expr it) c.pc_guard;
            it.expr it c.pc_rhs)
          cases
    | _ ->
        (match e.pexp_desc with
        | Pexp_fun _ | Pexp_function _ ->
            push ~loc:e.pexp_loc Closure "closure allocation (fun)"
        | Pexp_tuple _ -> push ~loc:e.pexp_loc Tuple "tuple allocation"
        | Pexp_record _ -> push ~loc:e.pexp_loc Record "record allocation"
        | Pexp_array _ ->
            push ~loc:e.pexp_loc Array_lit "array literal allocation"
        | Pexp_construct ({ txt; _ }, Some _) -> (
            match Parse_ml.flatten_longident txt with
            | Some [ "::" ] -> push ~loc:e.pexp_loc Cons "list cons (::)"
            | Some p ->
                push ~loc:e.pexp_loc Cons
                  (Printf.sprintf "constructor %s with payload"
                     (last_segment p))
            | None -> push ~loc:e.pexp_loc Cons "constructor with payload")
        | Pexp_variant (tag, Some _) ->
            push ~loc:e.pexp_loc Cons
              (Printf.sprintf "polymorphic variant `%s with payload" tag)
        | Pexp_lazy _ -> push ~loc:e.pexp_loc Cons "lazy suspension"
        | Pexp_try _ ->
            push ~loc:e.pexp_loc Try "try...with control flow"
        | Pexp_ident { txt; _ } -> (
            match Parse_ml.flatten_longident txt with
            | Some p when is_poly_compare_path p ->
                push ~loc:e.pexp_loc Poly
                  (Printf.sprintf "polymorphic %s" (last_segment p))
            | _ -> ())
        | Pexp_apply (fn, _) -> (
            match ident_path fn with
            | Some p when is_ref_path p ->
                push ~loc:e.pexp_loc Ref "ref cell allocation"
            | Some p when is_string_alloc_path p ->
                push ~loc:e.pexp_loc Str
                  (Printf.sprintf "string/bytes allocation via %s"
                     (String.concat "." p))
            | _ -> (
                match fn.pexp_desc with
                | Pexp_field (_, { txt; _ }) ->
                    let field =
                      match Parse_ml.flatten_longident txt with
                      | Some p -> last_segment p
                      | None -> "?"
                    in
                    push ~loc:e.pexp_loc Indirect
                      (Printf.sprintf "call through record field .%s" field)
                | Pexp_apply (inner, _)
                  when Option.fold ~none:false ~some:is_array_get_path
                         (ident_path inner) ->
                    push ~loc:e.pexp_loc Indirect
                      "call through array element"
                | _ -> ()))
        | _ -> ());
        Ast_iterator.default_iterator.expr it e
  and is_raise_arm fn =
    match ident_path fn with Some p -> is_raise_path p | None -> false
  in
  (* Structure-level bindings: the [fun] spine of a function definition is
     static code, not a runtime allocation, and a non-function right-hand
     side runs once at module init — only function *bodies* are scanned. *)
  let iterator =
    { Ast_iterator.default_iterator with expr }
  in
  let rec scan_spine ~in_fun e =
    match e.pexp_desc with
    | Pexp_fun (_, default, _, body) ->
        Option.iter (iterator.expr iterator) default;
        scan_spine ~in_fun:true body
    | Pexp_newtype (_, body) -> scan_spine ~in_fun body
    | Pexp_constraint (body, _) -> scan_spine ~in_fun body
    | Pexp_function cases ->
        List.iter
          (fun c ->
            Option.iter (iterator.expr iterator) c.pc_guard;
            iterator.expr iterator c.pc_rhs)
          cases
    | _ ->
        if in_fun then iterator.expr iterator e
        (* else: init-time value, not a per-operation allocation *)
  in
  let scan_binding_rhs e = scan_spine ~in_fun:false e in
  let structure_item (it : Ast_iterator.iterator) item =
    match item.pstr_desc with
    | Pstr_value (_, vbs) ->
        List.iter (fun vb -> scan_binding_rhs vb.pvb_expr) vbs
    | Pstr_eval _ -> () (* runs once at module init *)
    | _ -> Ast_iterator.default_iterator.structure_item it item
  in
  let top = { iterator with structure_item } in
  top.structure top structure;
  List.sort
    (fun a b ->
      match Int.compare a.s_line b.s_line with
      | 0 -> Int.compare a.s_col b.s_col
      | c -> c)
    !sites
