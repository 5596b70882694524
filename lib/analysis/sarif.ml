(* SARIF 2.1.0 serialization of lint findings, for GitHub code scanning.

   Only gating findings become results: suppressed findings already
   carry their justification in the allowlist, and stale entries are an
   allowlist-maintenance concern, not a code finding.

   Every rule — in every family, uniformly — carries full metadata: a
   PascalCase name, a one-line shortDescription, and help text, so the
   code scanning UI can label and explain alerts without reaching back
   into README.  [catalog_complete] lets a test pin the invariant that a
   new rule id cannot land without its metadata. *)

let tool_name = "lazyctrl-lint"
let schema = "https://json.schemastore.org/sarif-2.1.0.json"

type meta = {
  m_id : string;
  m_name : string;  (* PascalCase, the SARIF rule "name" *)
  m_short : string;  (* one line, mirroring README "Static analysis" *)
  m_help : string;  (* what to do about a finding *)
}

let catalog =
  [
    {
      m_id = Rules.d_hashtbl_order;
      m_name = "HashtblIterationOrder";
      m_short =
        "Unordered hash-table iteration can make two same-seed runs diverge";
      m_help =
        "Iterate a sorted key snapshot (Det.sorted_keys) or feed the fold \
         straight into an order-erasing sink like List.sort.";
    };
    {
      m_id = Rules.d_raw_random;
      m_name = "RawRandomness";
      m_short = "Raw randomness outside the seeded PRNG sanctuary";
      m_help =
        "Draw from the seeded, splittable Prng stream plumbed through the \
         simulation instead of Stdlib.Random.";
    };
    {
      m_id = Rules.d_wall_clock;
      m_name = "WallClockRead";
      m_short = "Host clock read outside the simulated-time sanctuary";
      m_help =
        "Simulated behavior must depend only on Lazyctrl_sim.Time; host \
         clocks belong to the measurement harness alone.";
    };
    {
      m_id = Rules.d_float_eq;
      m_name = "FloatEquality";
      m_short =
        "Float equality where simulated-time arithmetic needs a tolerance";
      m_help =
        "Compare with an explicit epsilon, or move the quantity onto \
         integer nanoseconds like the rest of the simulator.";
    };
    {
      m_id = Rules.a_poly_compare;
      m_name = "PolymorphicCompare";
      m_short = "Polymorphic compare where a keyed module exports its own";
      m_help =
        "Use the keyed module's compare: structural compare follows \
         representation, not identity, and breaks when the type grows.";
    };
    {
      m_id = Rules.a_poly_hash;
      m_name = "PolymorphicHash";
      m_short = "Polymorphic hash where a keyed module exports its own";
      m_help =
        "Use the keyed module's hash (or its Tbl functor instance) so \
         hashing agrees with the module's equality.";
    };
    {
      m_id = Rules.a_poly_eq;
      m_name = "PolymorphicEquality";
      m_short = "Polymorphic equality on keyed record fields";
      m_help =
        "Compare keyed fields (mac, ip, tenant, ...) with the key module's \
         equal, not structural (=).";
    };
    {
      m_id = Rules.p_failover_table;
      m_name = "FailoverTableTotality";
      m_short = "Failure-inference table must stay total and consistent";
      m_help =
        "Keep the wheel failure-inference match total over its declared \
         input space; the symbolic evaluation replays Table I exhaustively.";
    };
    {
      m_id = Rules.p_proto_coverage;
      m_name = "ProtoCoverage";
      m_short = "Every Proto message constructor needs a handler arm";
      m_help =
        "Add the missing handler arm (or an explicit ignore) so the \
         controller/switch dispatch stays total over the message grammar.";
    };
    {
      m_id = Rules.e_indirect_random;
      m_name = "IndirectRandomness";
      m_short = "Randomness reached indirectly through the call graph";
      m_help =
        "A helper on this call chain draws raw randomness; thread the \
         seeded Prng through it or break the edge.";
    };
    {
      m_id = Rules.e_indirect_clock;
      m_name = "IndirectWallClock";
      m_short = "Host clock reached indirectly through the call graph";
      m_help =
        "A helper on this call chain reads the host clock; simulated code \
         must reach time only through Lazyctrl_sim.Time.";
    };
    {
      m_id = Rules.e_indirect_order;
      m_name = "IndirectHashtblOrder";
      m_short =
        "Unordered iteration reached indirectly through the call graph";
      m_help =
        "A helper on this call chain iterates a hash table unordered; \
         route it through Det's sorted snapshots.";
    };
    {
      m_id = Rules.l_layering;
      m_name = "LayeringViolation";
      m_short = "Dependency violates the declared layer DAG";
      m_help =
        "Move the code or invert the dependency; the allowed edges are \
         declared in lib/analysis/layering.ml and drawn in \
         ARCHITECTURE.md.";
    };
    {
      m_id = Rules.l_lazy_separation;
      m_name = "LazySeparation";
      m_short =
        "Control-plane separation: switch and controller touch only Proto";
      m_help =
        "The switch must not lean on controller internals (nor vice \
         versa); the Proto grammar is the entire shared surface.";
    };
    {
      m_id = Rules.x_dead_export;
      m_name = "DeadExport";
      m_short = "Exported value is referenced nowhere in the repo";
      m_help =
        "Drop the export from the .mli (or delete the definition); keep \
         interfaces tight so the call-graph passes stay sharp.";
    };
    {
      m_id = Rules.x_missing_mli;
      m_name = "MissingInterface";
      m_short = "Library module lacks an interface file";
      m_help =
        "Write the .mli: an explicit interface is what the dead-export \
         and layering passes check against.";
    };
    {
      m_id = Rules.s_module_state;
      m_name = "ModuleLevelState";
      m_short =
        "Module-level mutable state in code every logical shard runs";
      m_help =
        "A module-level binding is created once per process and shared \
         by every domain; make it a field of the instance Network builds \
         per shard.";
    };
    {
      m_id = Rules.h_spec;
      m_name = "HotpathSpecDefect";
      m_short = "Hot-path spec is malformed or has drifted from the code";
      m_help =
        "Fix lib/analysis/hotspec.ml: hot entries and cold boundaries \
         must resolve to definitions, boundaries need justifications and \
         must still be reachable.";
    };
    {
      m_id = Rules.h_hot_alloc;
      m_name = "HotPathAllocation";
      m_short =
        "Allocation site reachable from a hot entry without a cold \
         boundary";
      m_help =
        "The edge datapath must stay allocation-free: hoist or pool the \
         value, move the work behind a declared cold boundary, or \
         allowlist with a justification.";
    };
    {
      m_id = Rules.h_hot_indirect;
      m_name = "HotPathIndirection";
      m_short =
        "Polymorphic primitive or first-class-function call on a hot path";
      m_help =
        "Dynamic dispatch defeats inlining on the hot path; call the \
         target directly, use the keyed module's operations, or justify \
         the indirection.";
    };
    {
      m_id = Rules.h_hot_raise;
      m_name = "HotPathExceptionFlow";
      m_short = "Exception-based control flow inside the hot region";
      m_help =
        "Exceptions allocate and unwind on the hot path; return a variant \
         or sentinel instead.";
    };
    {
      m_id = Rules.h_alloc_calibration;
      m_name = "AllocCalibrationGap";
      m_short =
        "Probe statically clean but measured allocating — the analysis is \
         blind to it";
      m_help =
        "The allocation is invisible to the Parsetree pass (runtime \
         boxing, stdlib internals, partial application); find and fix it, \
         or allowlist the gap naming the source.";
    };
    {
      m_id = Rules.h_alloc_budget;
      m_name = "AllocBudgetDefect";
      m_short =
        "Measured minor-words-per-op over budget, or budget bookkeeping \
         drift";
      m_help =
        "Fix the allocation regression, or refresh HOTPATH_budget \
         deliberately saying what grew; every declared probe needs a \
         budget and a measurement.";
    };
  ]

let metadata_of rule =
  List.find_opt (fun m -> String.equal m.m_id rule) catalog

(* Every rule id has catalog metadata and vice versa — pinned by a test
   so a new rule cannot land without its SARIF entry. *)
let catalog_complete () =
  List.length catalog = List.length Rules.all
  && List.for_all (fun r -> Option.is_some (metadata_of r)) Rules.all

let of_findings findings =
  let module Json = Lazyctrl_util.Json in
  let str s = Json.Str s in
  let text s = Json.Obj [ ("text", str s) ] in
  let rule m =
    Json.Obj
      [
        ("id", str m.m_id);
        ("name", str m.m_name);
        ("shortDescription", text m.m_short);
        ("fullDescription", text m.m_help);
        ("help", text m.m_help);
      ]
  in
  let result (f : Finding.t) =
    let artifact = [ ("uri", str f.file); ("uriBaseId", str "SRCROOT") ] in
    let region =
      [
        ("startLine", Json.int (max 1 f.line));
        ("startColumn", Json.int (f.col + 1));
      ]
    in
    let location =
      [ ("artifactLocation", Json.Obj artifact); ("region", Json.Obj region) ]
    in
    Json.Obj
      [
        ("ruleId", str f.rule);
        ("level", str (Finding.severity_string f.severity));
        ("message", text f.message);
        ( "locations",
          Json.List [ Json.Obj [ ("physicalLocation", Json.Obj location) ] ] );
      ]
  in
  let driver =
    Json.Obj
      [ ("name", str tool_name); ("rules", Json.List (List.map rule catalog)) ]
  in
  let run =
    Json.Obj
      [
        ("tool", Json.Obj [ ("driver", driver) ]);
        ("results", Json.List (List.map result findings));
      ]
  in
  Json.to_string
    (Json.Obj
       [
         ("$schema", str schema);
         ("version", str "2.1.0");
         ("runs", Json.List [ run ]);
       ])

let of_report (report : Driver.report) = of_findings report.Driver.findings
