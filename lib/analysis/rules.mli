(** Rule identifiers and shared scoping knobs for the lint pass.

    Families: D00x determinism, A00x abstraction safety, P002 protocol
    coverage, L002 control-plane separation, X00x interface hygiene,
    S001 module-level state, H00x hot-path allocation discipline.  See
    README "Static analysis" for the rule table. *)

val d_hashtbl_order : string
val d_raw_random : string
val d_wall_clock : string
val d_float_eq : string
val a_poly_compare : string
val a_poly_hash : string
val a_poly_eq : string
val p_proto_coverage : string
val l_lazy_separation : string
val x_dead_export : string
val x_missing_mli : string
val s_module_state : string
val h_spec : string
val h_hot_alloc : string
val h_hot_indirect : string
val h_hot_raise : string
val h_alloc_budget : string

(** Every rule id, in family order. *)
val all : string list

val is_known : string -> bool

(** Family letters selectable with the CLI's [--rules] flag. *)
val families : string list

val is_family : string -> bool

(** Leading letter of a rule id ("D001-..." -> "D"). *)
val family_of : string -> string

val has_suffix : suffix:string -> string -> bool

(** Whitespace-separated words of a line (spaces and tabs). *)
val split_ws : string -> string list

(** Record fields whose comparison with polymorphic [=] almost certainly
    wants the keyed module's [equal]. *)
val keyed_fields : string list
