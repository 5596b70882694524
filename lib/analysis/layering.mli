(** The paper's control-plane separation (L002): [lib/controller] may
    reach into [Lazyctrl_switch] only through the [Proto] message
    grammar.  The library graph itself is the compiler's: with
    [implicit_transitive_deps] off, a library names only what its dune
    [libraries] field lists, so [lib/switch] cannot reach
    [Lazyctrl_controller] at all. *)

val check : Callgraph.t -> Finding.t list
