(** Declared hot-path spec for the H00x allocation-discipline family.

    A hot entry names a definition (Callgraph's naming) whose whole
    static call region must be allocation-free and ties it to a
    measurement probe (a bench/main.exe hotpath target name); a cold
    boundary names a definition where the discipline deliberately stops,
    with a mandatory written justification.  See DESIGN.md §10. *)

type entry = { h_probe : string; h_id : string }
type boundary = { b_id : string; b_why : string }
type spec = { hot : entry list; cold : boundary list }

(** Probe names declared by the spec, sorted and deduplicated. *)
val probes : spec -> string list

(** Spec-level defects as messages (duplicates, missing justifications,
    empty spec); Hotpath turns them into H000 findings. *)
val validate : spec -> string list

(** The repo's declared spec — keep in sync with DESIGN.md §10, the
    hotpath bench targets, and HOTPATH_budget. *)
val default : spec
