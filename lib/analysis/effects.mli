(** Interprocedural effect inference (E00x).

    Every top-level definition gets an effect signature over
    {{!eff} the lattice}; signatures are seeded at known primitives (the
    same classifications the per-file D-rules use) and propagated
    transitively over the {!Callgraph}, so a helper that reads
    [Sys.time] taints every caller that can reach it.  Sanctuary modules
    (prng, sim time, Det) are barriers: their effects do not propagate —
    going through them is the endorsed route. *)

type eff = Rng | Clock | Unordered

type table

(** [infer cg ~ast_findings] seeds from the pre-allowlist per-file AST
    findings (keyed by file), then propagates to a fixpoint. *)
val infer :
  Callgraph.t -> ast_findings:(string * Finding.t list) list -> table

(** Effect names in a definition's inferred signature. *)
val signature_of : table -> string -> string list

(** Gating findings: inherited (not directly seeded) effects outside
    barrier files, each with its witness chain. *)
val findings : table -> Finding.t list
