(* Rule identifiers and shared scoping knobs for the lint pass.

   Rule families (see README "Static analysis"):
   - D00x: determinism — anything that can make two runs of the simulator
     with the same seed diverge.
   - A00x: abstraction safety — polymorphic structural compare/equal/hash
     applied where a keyed module exports dedicated operations.
   - P002: protocol coverage — every controller/switch message is matched
     explicitly in both dispatchers.
   - L002: the paper's control-plane separation — the controller drives
     switches only through Proto (the compiler owns the library graph).
   - X00x: interface hygiene — dead exports and missing .mli files.
   - S001: module-level state — process-global mutable state in the code
     Network instantiates per logical shard (Mutinv), the one thing
     per-shard construction cannot keep apart.
   - H00x: hot-path allocation discipline — the code against the declared
     hot-path spec (Hotspec/Hotpath), and the measured minor-words-per-op
     budgets (Hotbudget). *)

let d_hashtbl_order = "D001-hashtbl-order"
let d_raw_random = "D002-raw-random"
let d_wall_clock = "D003-wall-clock"
let d_float_eq = "D004-float-eq"
let a_poly_compare = "A001-poly-compare"
let a_poly_hash = "A002-poly-hash"
let a_poly_eq = "A003-poly-eq"
let p_proto_coverage = "P002-proto-coverage"
let l_lazy_separation = "L002-lazy-separation"
let x_dead_export = "X001-dead-export"
let x_missing_mli = "X002-missing-mli"
let s_module_state = "S001-module-state"
let h_spec = "H000-hotpath-spec"
let h_hot_alloc = "H001-hot-alloc"
let h_hot_indirect = "H002-hot-indirect"
let h_hot_raise = "H003-hot-raise"
let h_alloc_budget = "H005-alloc-budget"

let all =
  [
    d_hashtbl_order;
    d_raw_random;
    d_wall_clock;
    d_float_eq;
    a_poly_compare;
    a_poly_hash;
    a_poly_eq;
    p_proto_coverage;
    l_lazy_separation;
    x_dead_export;
    x_missing_mli;
    s_module_state;
    h_spec;
    h_hot_alloc;
    h_hot_indirect;
    h_hot_raise;
    h_alloc_budget;
  ]

let is_known r = List.exists (String.equal r) all

(* Rule families, selectable with the CLI's [--rules] flag.  The family of
   a rule is the leading letter of its identifier; "allowlist" diagnostics
   (malformed entries) are not a family and always gate. *)
let families = [ "D"; "A"; "P"; "L"; "X"; "S"; "H" ]
let is_family f = List.exists (String.equal f) families

let family_of rule =
  if String.length rule > 0 then String.sub rule 0 1 else rule

let has_suffix ~suffix s =
  let ls = String.length s and lx = String.length suffix in
  ls >= lx && String.equal (String.sub s (ls - lx) lx) suffix

(* Whitespace-separated words of a line of the allowlist or budget file. *)
let split_ws s =
  String.split_on_char ' ' s
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun w -> not (String.equal w ""))

(* Record fields whose comparison with polymorphic [=] almost certainly
   wants the keyed module's [equal] instead. *)
let keyed_fields = [ "mac"; "ip"; "tenant"; "designated"; "origin"; "id" ]
