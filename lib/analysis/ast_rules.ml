(* Parsetree-level rule checks: determinism (D00x) and abstraction safety
   (A00x).  Everything here is syntactic — there is no type information —
   so the rules are heuristics tuned to this codebase's idioms, with an
   allowlist for the residue (see Allowlist). *)

open Asttypes
open Parsetree

type ctx = {
  file : string;
  mutable findings : Finding.t list;
  (* Character offsets of identifier occurrences that were sanctioned by
     their syntactic context (e.g. a [Hashtbl.fold] whose result is fed
     straight into [List.sort]).  Parents are visited before children, so
     marking happens before the child identifier is checked. *)
  sanctioned : (int, unit) Hashtbl.t;
}

let emit ctx ~loc ~rule ~severity message =
  ctx.findings <-
    Finding.make ~file:ctx.file ~line:(Parse_ml.line_of loc)
      ~col:(Parse_ml.col_of loc) ~rule ~severity message
    :: ctx.findings

let ident_path e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> Parse_ml.flatten_longident txt
  | _ -> None

(* The head identifier of an expression: the function of an application
   chain, or the identifier itself. *)
let head_ident e =
  match e.pexp_desc with Pexp_apply (fn, _) -> ident_path fn | _ -> ident_path e

(* --- identifier classifiers ---------------------------------------------- *)

(* Unordered traversal of a hash table: [Hashtbl.iter]/[fold]/[to_seq*]
   or the same operations on a [Hashtbl.Make] instance (conventionally
   bound as [Tbl] in this codebase, e.g. [Ids.Switch_id.Tbl.fold]). *)
let unordered_ops = [ "iter"; "fold"; "to_seq"; "to_seq_keys"; "to_seq_values" ]

let is_unordered_tbl_path path =
  match List.rev path with
  | op :: m :: _ ->
      (String.equal m "Hashtbl" || String.equal m "Tbl")
      && List.exists (String.equal op) unordered_ops
  | _ -> false

let is_random_path path =
  match path with
  | "Random" :: _ | "Stdlib" :: "Random" :: _ -> true
  | _ -> false

let wall_clocks =
  [
    [ "Unix"; "gettimeofday" ];
    [ "Unix"; "time" ];
    [ "Sys"; "time" ];
    (* bechamel's monotonic counter: fine for measuring the harness
       itself (lib/perf, allowlisted), never for simulated behavior. *)
    [ "Monotonic_clock"; "now" ];
  ]

let is_wall_clock_path path =
  let path =
    match path with "Stdlib" :: rest -> rest | _ -> path
  in
  List.exists (List.equal String.equal path) wall_clocks

let is_poly_compare_path path =
  match path with
  | [ "compare" ] | [ "Stdlib"; "compare" ] | [ "Pervasives"; "compare" ] ->
      true
  | _ -> false

let is_poly_hash_path path =
  match path with
  | [ "Hashtbl"; "hash" ]
  | [ "Stdlib"; "Hashtbl"; "hash" ]
  | [ "Hashtbl"; "seeded_hash" ] ->
      true
  | _ -> false

(* An ordering-insensitive sink: feeding an unordered traversal directly
   into one of these erases the order dependence. *)
let is_order_erasing_path path =
  match List.rev path with
  | f :: "List" :: _ ->
      List.exists (String.equal f)
        [ "sort"; "sort_uniq"; "stable_sort"; "fast_sort"; "length" ]
  | [ "length"; "Hashtbl" ] -> true
  | _ -> false

(* --- operand classifiers -------------------------------------------------- *)

let is_eq_op path =
  match path with
  | [ op ] -> List.exists (String.equal op) [ "="; "<>"; "=="; "!=" ]
  | _ -> false

let is_float_literal e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_float _) -> true
  | Pexp_apply (fn, [ (Nolabel, arg) ]) -> (
      (* unary minus: [-. 0.5] or [- 0.5] over a float literal *)
      match (ident_path fn, arg.pexp_desc) with
      | Some [ ("~-." | "~-") ], Pexp_constant (Pconst_float _) -> true
      | _ -> false)
  | _ -> false

let empty_construct e =
  match e.pexp_desc with
  | Pexp_construct ({ txt = Lident "None"; _ }, None) -> Some "None"
  | Pexp_construct ({ txt = Lident "[]"; _ }, None) -> Some "[]"
  | _ -> None

let keyed_field e =
  match e.pexp_desc with
  | Pexp_field (_, { txt; _ }) -> (
      match Parse_ml.flatten_longident txt with
      | Some path -> (
          match List.rev path with
          | f :: _ when List.exists (String.equal f) Rules.keyed_fields ->
              Some f
          | _ -> None)
      | None -> None)
  | _ -> None

(* --- the traversal -------------------------------------------------------- *)

let sanction ctx e =
  (* Mark the head identifier of [e] (if it is an unordered traversal) as
     sanctioned by its context. *)
  match e.pexp_desc with
  | Pexp_apply (fn, _) -> (
      match ident_path fn with
      | Some path when is_unordered_tbl_path path ->
          Hashtbl.replace ctx.sanctioned fn.pexp_loc.loc_start.pos_cnum ()
      | _ -> ())
  | _ -> ()

let check_apply ctx fn args =
  match (ident_path fn, args) with
  (* Pipelines: [fold-app |> List.sort cmp] and [List.sort cmp @@ fold-app]. *)
  | Some [ "|>" ], [ (Nolabel, lhs); (Nolabel, rhs) ] -> (
      match head_ident rhs with
      | Some p when is_order_erasing_path p -> sanction ctx lhs
      | _ -> ())
  | Some [ "@@" ], [ (Nolabel, lhs); (Nolabel, rhs) ] -> (
      match head_ident lhs with
      | Some p when is_order_erasing_path p -> sanction ctx rhs
      | _ -> ())
  (* Direct wrap: [List.sort cmp (fold-app)]. *)
  | Some p, args when is_order_erasing_path p ->
      List.iter (fun (_, a) -> sanction ctx a) args
  (* Comparison operators. *)
  | Some p, [ (Nolabel, a); (Nolabel, b) ] when is_eq_op p ->
      let loc = fn.pexp_loc in
      if is_float_literal a || is_float_literal b then
        emit ctx ~loc ~rule:Rules.d_float_eq ~severity:Finding.Warning
          "float equality comparison: exact float tests are brittle and \
           order-of-operations sensitive; use Float.equal for deliberate \
           bit-exact tests, or compare against a tolerance";
      (match (empty_construct a, empty_construct b) with
      | Some "None", _ | _, Some "None" ->
          emit ctx ~loc ~rule:Rules.a_poly_eq ~severity:Finding.Warning
            "polymorphic equality with None descends into the payload type; \
             use Option.is_none/Option.is_some or a pattern match"
      | Some "[]", _ | _, Some "[]" ->
          emit ctx ~loc ~rule:Rules.a_poly_eq ~severity:Finding.Warning
            "polymorphic equality with []; use List.is_empty or a pattern \
             match"
      | _ -> (
          match (keyed_field a, keyed_field b) with
          | Some f, _ | _, Some f ->
              emit ctx ~loc ~rule:Rules.a_poly_eq ~severity:Finding.Warning
                (Printf.sprintf
                   "polymorphic equality on keyed field '.%s'; use the \
                    module's dedicated equal (Mac.equal, Ids.*.equal, ...)"
                   f)
          | None, None -> ()))
  | _ -> ()

let check_ident ctx loc path =
  if is_unordered_tbl_path path then (
    if not (Hashtbl.mem ctx.sanctioned loc.Location.loc_start.pos_cnum) then
      emit ctx ~loc ~rule:Rules.d_hashtbl_order ~severity:Finding.Warning
        (Printf.sprintf
           "%s iterates in hash-bucket order, which is not stable across \
            insertion histories or OCaml versions; use \
            Lazyctrl_util.Det.iter_sorted/fold_sorted/bindings_sorted, or \
            pipe the result straight into List.sort"
           (String.concat "." path)))
  else if is_random_path path then
    emit ctx ~loc ~rule:Rules.d_raw_random ~severity:Finding.Error
      (Printf.sprintf
         "%s bypasses the seeded simulation PRNG; draw from a \
          Lazyctrl_util.Prng stream (Prng.named for a stable substream)"
         (String.concat "." path))
  else if is_wall_clock_path path then
    emit ctx ~loc ~rule:Rules.d_wall_clock ~severity:Finding.Error
      (Printf.sprintf
         "%s reads the host clock; simulated time must come from \
          Lazyctrl_sim.Time / Engine.now"
         (String.concat "." path))
  else if is_poly_compare_path path then
    emit ctx ~loc ~rule:Rules.a_poly_compare ~severity:Finding.Warning
      "polymorphic compare; use the keyed module's compare (Int.compare, \
       Float.compare, Mac.compare, Ids.*.compare, ...)"
  else if is_poly_hash_path path then
    emit ctx ~loc ~rule:Rules.a_poly_hash ~severity:Finding.Warning
      "polymorphic Hashtbl.hash; use the keyed module's hash"

let scan ~file structure =
  let ctx = { file; findings = []; sanctioned = Hashtbl.create 16 } in
  let expr (it : Ast_iterator.iterator) e =
    (match e.pexp_desc with
    | Pexp_apply (fn, args) -> check_apply ctx fn args
    | Pexp_ident { txt; _ } -> (
        match Parse_ml.flatten_longident txt with
        | Some path -> check_ident ctx e.pexp_loc path
        | None -> ())
    | _ -> ());
    Ast_iterator.default_iterator.expr it e
  in
  let iterator = { Ast_iterator.default_iterator with expr } in
  iterator.structure iterator structure;
  List.sort Finding.compare ctx.findings
