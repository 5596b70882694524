(* Module-level mutable state (S001-module-state).

   Network builds every engine, switch, controller, host model and PRNG
   stream once per logical shard, so instance state stays on its shard
   by construction (the [post] seam raises [Conservative_violation] on
   any undercut crossing, and the 1-vs-N-domain fingerprint property
   pins the result).  What shards can still share is process-global
   state: a module-level binding is evaluated once per process, and every
   domain running the module's code reads and writes the same value.

   This per-file pass reports each such binding in the code Network
   instantiates per shard: every library under lib/ but the harness
   layers (experiments, perf, chaos, the lint itself), which run outside
   the sharded engine and stay out of scope, as do bin/bench/examples. *)

open Parsetree

let strip_stdlib = function "Stdlib" :: rest -> rest | p -> p

(* Does applying [path] build fresh mutable state?  [ref], the stdlib's
   table/array/bytes builders, and the repo's constructor convention:
   [M.create] returns a new stateful instance ([Prng.create],
   [Intmap.create], [Hashtbl.create], a keyed [Tbl.create], ...). *)
let is_state_constructor path =
  match List.rev (strip_stdlib path) with
  | [ "ref" ] | "create" :: _ -> true
  | op :: m :: _ ->
      List.exists (String.equal m) [ "Array"; "Bytes"; "Float_array" ]
      && List.exists (String.equal op) [ "make"; "init"; "make_matrix"; "copy" ]
      || (String.equal m "Hashtbl" || String.equal m "Tbl")
         && String.equal op "of_seq"
  | _ -> false

(* Does this expression evaluate to mutable state?  Descends through the
   containers a value is built from, so [let t = { tbl = Hashtbl.create 7 }]
   counts, and through local lets, so a counter hidden behind a closure
   ([let next = let n = ref 0 in fun () -> incr n; !n]) counts too.  A
   function body is never entered: a [ref] made per call is local. *)
let rec creates_mutable e =
  match e.pexp_desc with
  | Pexp_apply (fn, args) -> (
      match fn.pexp_desc with
      | Pexp_ident { txt; _ } -> (
          match Parse_ml.flatten_longident txt with
          | Some p ->
              is_state_constructor p
              || List.exists (fun (_, a) -> creates_mutable a) args
          | None -> false)
      | _ -> false)
  | Pexp_record (fields, _) ->
      List.exists (fun (_, v) -> creates_mutable v) fields
  | Pexp_tuple es -> List.exists creates_mutable es
  | Pexp_construct (_, Some e) -> creates_mutable e
  | Pexp_array _ -> true
  | Pexp_constraint (e, _) | Pexp_open (_, e) -> creates_mutable e
  | Pexp_let (_, vbs, body) ->
      List.exists (fun vb -> creates_mutable vb.pvb_expr) vbs
      || creates_mutable body
  | _ -> false

(* The code Network instantiates per logical shard: every library but the
   lint, the chaos and experiment harnesses above the network, and the
   perf timer outside the simulation. *)
let in_scope file =
  match Callgraph.lib_of_path file with
  | Some ("analysis" | "chaos" | "experiments" | "perf") | None -> false
  | Some _ -> true

let binding_name pat =
  match pat.ppat_desc with
  | Ppat_var { txt; _ } -> txt
  | Ppat_constraint ({ ppat_desc = Ppat_var { txt; _ }; _ }, _) -> txt
  | _ -> "_"

let check ~file structure =
  let out = ref [] in
  let rec items structure = List.iter item structure
  and item it =
    match it.pstr_desc with
    | Pstr_value (_, vbs) ->
        List.iter
          (fun vb ->
            if creates_mutable vb.pvb_expr then
              out :=
                Finding.make ~file ~line:(Parse_ml.line_of vb.pvb_loc)
                  ~col:(Parse_ml.col_of vb.pvb_loc) ~rule:Rules.s_module_state
                  ~severity:Finding.Error
                  (Printf.sprintf
                     "module-level binding '%s' creates mutable state once \
                      per process, so every shard running this code shares \
                      it; move it into the instance Network builds per \
                      shard, or allowlist it with why no shard writes it"
                     (binding_name vb.pvb_pat))
                :: !out)
          vbs
    | Pstr_module { pmb_expr; _ } -> module_expr pmb_expr
    | _ -> ()
  and module_expr me =
    match me.pmod_desc with
    | Pmod_structure s -> items s
    | Pmod_constraint (me, _) -> module_expr me
    | _ -> ()
  in
  if in_scope file then items structure;
  List.rev !out
