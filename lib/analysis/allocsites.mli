(** Allocation-site inference over the Parsetree, for the H00x hot-path
    family.  Syntactic only: partial application and stdlib-internal
    boxing are invisible here — the measured minor-words-per-op budgets
    (Hotbudget) are the backstop for both. *)

type kind =
  | Closure  (** [fun]/[function] evaluated at runtime *)
  | Cons  (** constructor with a payload, including list cons *)
  | Tuple
  | Record
  | Array_lit
  | Ref
  | Str  (** string/bytes-allocating stdlib operation *)
  | Poly  (** polymorphic [compare]/[Hashtbl.hash] (H002) *)
  | Indirect  (** call through a record field or array element (H002) *)
  | Raise  (** [raise]/[raise_notrace] (H003) *)
  | Try  (** [try ... with] handler (H003) *)

type site = { s_kind : kind; s_line : int; s_col : int; s_desc : string }

val kind_name : kind -> string

(** Sites that allocate per evaluation (H001 material); the others are
    dispatch/control findings and do not count toward a probe's static
    allocation tally. *)
val is_alloc : kind -> bool

(** The H rule a site of this kind reports under. *)
val rule_of : kind -> string

(** All sites in the structure, in source order.  Structure-level
    non-function bindings are skipped (they run once at module init), as
    are allocation sites guarded by [if Tracer.enabled ...] (the flight
    recorder's documented discipline). *)
val scan : Parsetree.structure -> site list
