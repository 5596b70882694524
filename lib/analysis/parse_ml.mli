(** Parse .ml/.mli sources into Parsetrees via compiler-libs, plus the
    location and identifier helpers every pass shares. *)

(** Parse an implementation; [Error msg] carries the parser's message. *)
val parse :
  file:string -> src:string -> (Parsetree.structure, string) result

(** Parse an interface (.mli). *)
val parse_intf :
  file:string -> src:string -> (Parsetree.signature, string) result

(** Start line of a location. *)
val line_of : Location.t -> int

(** Start column (0-based) of a location. *)
val col_of : Location.t -> int

(** [A.B.c] as [["A"; "B"; "c"]]; [None] for functor applications. *)
val flatten_longident : Longident.t -> string list option
