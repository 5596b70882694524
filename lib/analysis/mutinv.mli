(** Module-level mutable state (S001-module-state): a module-level
    binding, nested [module ... = struct] included, whose right-hand
    side creates mutable state — [ref], a hash table, a flat array or
    bytes, an array literal, any [create] application (the repo's
    constructor convention), or a record, tuple, constructor or local
    [let] holding one — is shared by every shard of the process.  Purely
    syntactic and per file. *)

val check : file:string -> Parsetree.structure -> Finding.t list
(** One finding per mutable module-level binding, in source order, if
    [file] is code that Network instantiates per logical shard:
    every library under [lib/] except [analysis], [chaos], [experiments]
    and [perf].  Empty for any other file. *)
