(** Shared-state ownership spec for the S00x domain-safety family.

    Declares, per simulator module, who may own its mutable state under
    the ROADMAP's multicore shard refactor: shard-local (instances
    confined to one domain), shard-crossing (the sanctioned inter-domain
    surface, with a mandatory written justification), or
    read-only-after-init (built during setup, immutable while the run
    loop is live) — plus the declared shard entry points the {!Shard}
    reachability pass starts from. *)

type owner_class = Shard_local | Shard_crossing | Read_only_after_init

val class_name : owner_class -> string

type phase = Init | Run

val phase_name : phase -> string

type rule = { path : string; cls : owner_class; why : string option }
(** [path] is a repo-relative file, or a directory prefix when it ends
    in ['/'].  File rules beat directory rules; the longest directory
    prefix wins otherwise. *)

type entry = { e_id : string; e_shard : string; e_phase : phase }
(** A declared entry point: fully-qualified definition id (in
    {!Callgraph} naming), owning shard group, and phase. *)

type spec = { rules : rule list; entries : entry list }

val class_of :
  spec -> file:string -> (owner_class * string option) option
(** Classification (and crossing justification) of a repo-relative file;
    [None] for modules outside the spec (harness layers — exempt from
    the S rules, still inventoried). *)

val run_entries : spec -> entry list

val validate : spec -> string list
(** Spec-level defects (undocumented crossings, duplicate rules, no run
    entries), as messages; {!Shard.check} reports them as S000. *)

val default : spec
(** The repo's declared spec — keep in sync with DESIGN.md §9. *)
