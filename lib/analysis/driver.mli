(** Lint driver: walks the source tree, parses every file once into a
    shared cache, feeds the same Parsetrees to the per-file rules, the
    protocol coverage check and the call-graph passes, and filters the
    result through the allowlist. *)

type report = {
  findings : Finding.t list;
      (** gating: unallowlisted + malformed allowlist entries *)
  suppressed : Finding.t list;  (** matched by an allowlist entry *)
  stale : Finding.t list;  (** allowlist entries that matched nothing *)
  files_scanned : int;
  parse_failures : (string * string) list;
      (** (file, parser message), each file reported once *)
  callgraph_notes : (string * string) list;
      (** (file, note): constructs the call-graph index could not fully
          resolve — the whole-program passes' honest blind spots *)
}

(** Per-file rules on one source, or the parser's message when the file
    does not parse. *)
val lint_source : file:string -> src:string -> (Finding.t list, string) result

(** Protocol coverage against the tree under [root] — the same check the
    @lint alias runs, exposed for tests. *)
val protocol_findings : root:string -> Finding.t list

(** Run the full lint.  [families] (default all of {!Rules.families})
    restricts which rule families run and which allowlist entries can be
    stale. *)
val run :
  ?families:string list -> root:string -> allow_path:string -> unit -> report

(** No gating findings, and every scanned file parsed. *)
val clean : report -> bool

val report_to_json : report -> string

(** The H00x hot-path report ([make lint-hotpath],
    [_build/hotpath-report.json]): the static verdict per probe next to
    its committed budget and the measured minor-words-per-op, findings
    filtered through the same allowlist as everything else. *)
type hotpath_report = {
  hp_probes : Hotpath.probe_status list;
  hp_rows : Hotbudget.row list;
  hp_findings : Finding.t list;
      (** gating: unallowlisted static + dynamic findings *)
  hp_suppressed : Finding.t list;
}

(** [measured] maps probe names to measured minor words/op, read out of a
    lib/perf report by the CLI; [budget_path] is relative to [root]. *)
val hotpath_check :
  root:string ->
  allow_path:string ->
  budget_path:string ->
  measured:(string * float) list ->
  unit ->
  hotpath_report

val hotpath_clean : hotpath_report -> bool
val hotpath_report_json : hotpath_report -> string
