(** A single rule violation, pinned to a source location. *)

type severity = Error | Warning

type t = {
  file : string;
  line : int;
  col : int;
  rule : string;
  severity : severity;
  message : string;
}

val make :
  file:string ->
  line:int ->
  ?col:int ->
  rule:string ->
  severity:severity ->
  string ->
  t

(** Total order by (file, line, col, rule) — the report order. *)
val compare : t -> t -> int

val to_string : t -> string

val severity_string : severity -> string
(** ["error"] or ["warning"], as the JSON reports spell it. *)
