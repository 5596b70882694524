(** Protocol coverage (P002): every [Proto] message constructor is
    matched explicitly in both handlers. *)

(** [check_coverage ~proto ~handlers ()] checks that every constructor
    of [proto]'s variant [type_name] (default ["t"]) appears in a
    pattern in each handler file — wildcards do not count. *)
val check_coverage :
  ?type_name:string ->
  proto:string * Parsetree.structure ->
  handlers:(string * Parsetree.structure) list ->
  unit ->
  Finding.t list
