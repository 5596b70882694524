(** Cross-module reference index and call graph for the whole-program
    passes ({!Effects}, {!Layering}, {!Deadcode}).

    Built purely from Parsetrees — no typing environment — so resolution
    is name-based and follows this repo's conventions:
    [lib/<dir>/<name>.ml] defines [Lazyctrl_<dir>.<Name>];
    bin/bench/examples files are standalone modules.  Where a name
    cannot be resolved, the index errs on the side of {e more}
    references (deadcode stays conservative) and {e fewer} call edges
    (effects stay precise). *)

type ref_kind = Value | Type | Module | Open

type fref = {
  r_path : string list;
  r_line : int;
  r_col : int;
  r_kind : ref_kind;
}

type def = {
  d_file : string;
  d_id : string;  (** dotted fully-qualified id, e.g. Lazyctrl_switch.Proto.mac_key *)
  d_qual : string list;
  d_line : int;
  d_col : int;
  d_span : (int * int) * (int * int);
      (** start/end (line, col) of the binding *)
  d_refs : (string list * int * int) list;
      (** raw value-ident paths in the body *)
  d_opens : string list list;  (** opens in scope, innermost first *)
  d_encl : string list list;  (** enclosing module quals, innermost first *)
}

type finfo = {
  f_file : string;
  f_lib : string option;  (** lib dir name for lib/<dir>/... files *)
  f_mod : string;
  f_aux : bool;  (** reference-only (test/): counts uses, yields no findings *)
  f_opens : string list list;  (** toplevel opens, latest first *)
  f_aliases : (string * string list) list;
      (** module alias -> absolutized target *)
  f_refs : fref list;  (** every longident with a location, for layering *)
  f_defs : def list;
  f_uses : string list list;
      (** modules used opaquely: functor args, includes, packs *)
  f_notes : string list;
      (** constructs the name-based index could not fully resolve
          (first-class modules, non-ident functor heads), deduplicated
          per file *)
}

type t

val has_prefix : prefix:string -> string -> bool

(** ["util"] -> ["Lazyctrl_util"], the dune wrapper module. *)
val wrapper_of_lib : string -> string

(** Inverse of {!wrapper_of_lib}; [None] for non-wrapper names. *)
val lib_of_wrapper : string -> string option

(** ["lib/switch/lfib.ml"] -> ["switch"]; [None] outside [lib/<dir>/]. *)
val lib_of_path : string -> string option

(** Build the index.  [files] are findable sources (repo-relative path,
    parsed structure); [aux] files only contribute usage marks. *)
val build :
  files:(string * Parsetree.structure) list ->
  aux:(string * Parsetree.structure) list ->
  t

(** All definition ids, sorted. *)
val def_ids : t -> string list

val find_def : t -> string -> def option

(** Resolved callee def ids of a definition, sorted, self excluded. *)
val callees : t -> string -> string list

(** All indexed files, sorted by path (aux included). *)
val files : t -> finfo list

(** Module names of a library directory, sorted. *)
val modules_of_lib : t -> string -> string list

val defs_of_file : t -> string -> def list

(** Innermost definition whose span contains (line, col) in [file]. *)
val def_spanning : t -> file:string -> line:int -> col:int -> def option

(** Files (aux included) that plausibly reference the fully-qualified
    value [qual], excluding [owner_file]; includes files that use the
    owning module opaquely (functor argument, include, pack). *)
val referencing_files :
  t -> qual:string list -> owner_file:string -> string list
