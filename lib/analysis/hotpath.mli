(** Hot-path allocation-discipline checks (H00x): the code against the
    {!Hotspec}, whole-program over the shared {!Callgraph}.

    H000 spec defects (validation, unresolved entries/boundaries, stale
    boundaries), H001 allocation sites reachable from a hot entry without
    an intervening cold boundary, H002 polymorphic primitives or
    first-class-function indirection on a hot path, H003 exception-based
    control flow in the hot region.  Findings carry witness call chains
    from the hot entry.  {!Hotbudget} reports the per-probe static tally
    next to the measured minor-words-per-op. *)

type probe_status = {
  p_probe : string;
  p_entries : string list;  (** resolved hot-entry def ids *)
  p_alloc_sites : int;
      (** H001-class sites statically reachable, allowlisted or not:
          zero means the probe claims to be allocation-free *)
}

type analysis = { a_findings : Finding.t list; a_probes : probe_status list }

val analyze :
  spec:Hotspec.spec ->
  cg:Callgraph.t ->
  structures:(string * Parsetree.structure) list ->
  unit ->
  analysis

(** [analyze] restricted to its findings, for the driver's H pass. *)
val check :
  spec:Hotspec.spec ->
  cg:Callgraph.t ->
  structures:(string * Parsetree.structure) list ->
  unit ->
  Finding.t list
