(** The measured half of the H00x family: measured minor-words-per-op
    per probe against the committed budget file; an excess or a gap in
    the bookkeeping is an H005 finding.  Pure bookkeeping over (probe,
    words/op) pairs; no perf dependency. *)

type entry = { e_probe : string; e_words : float; e_line : int }

(** Measured minor words/op at or below this is counter noise; a single
    boxed option costs 2 words/op, well above it.  It separates the
    [Clean] verdict from [Within_budget]. *)
val epsilon : float

type verdict =
  | Clean
  | Within_budget
  | Over_budget
  | Unmeasured
  | Unbudgeted

val verdict_name : verdict -> string

type row = {
  r_probe : string;
  r_static_sites : int;
  r_budget : float option;
  r_measured : float option;
  r_verdict : verdict;
}

(** Parse a budget file (["<probe> <minor-words-per-op> [-- note]"], [#]
    comments): entries plus parse errors as messages. *)
val parse : string -> entry list * string list

(** One row per declared probe plus the H005 findings.
    [budget_file] is the repo-relative path findings attribute to;
    [measured] maps probe name to measured minor words/op. *)
val evaluate :
  budget_file:string ->
  probes:Hotpath.probe_status list ->
  budget:entry list ->
  measured:(string * float) list ->
  row list * Finding.t list
