(* Shared-state ownership spec for the S00x domain-safety family.

   ROADMAP item 2 shards the simulator by LCG onto OCaml 5 domains; the
   correctness question for that refactor (and for every devolved- or
   distributed-controller design) is *who owns which mutable state*.
   This module makes the answer data: every simulator module is declared
   shard-local (instances confined to one domain), shard-crossing (the
   sanctioned inter-domain surface — must carry a written justification),
   or read-only-after-init (built during setup, immutable while the run
   loop is live).  The Shard pass checks the code against the spec; the
   sharding PR consumes the spec as its synchronization worklist. *)

type owner_class = Shard_local | Shard_crossing | Read_only_after_init

let class_name = function
  | Shard_local -> "shard-local"
  | Shard_crossing -> "shard-crossing"
  | Read_only_after_init -> "read-only-after-init"

type phase = Init | Run

let phase_name = function Init -> "init" | Run -> "run"

(* A classification rule: [path] is a repo-relative file ("lib/x/y.ml")
   or, with a trailing '/', a directory prefix.  File rules beat
   directory rules; the longest directory prefix wins otherwise.
   [why] is mandatory for Shard_crossing — an undocumented crossing is
   exactly the rot this spec exists to prevent. *)
type rule = { path : string; cls : owner_class; why : string option }

(* A declared entry point of the sharded control plane: [e_id] is a
   fully-qualified definition id in Callgraph's naming, [e_shard] names
   the shard group that executes it, and [e_phase] separates the setup
   surface from the run loop (S003's init/run distinction). *)
type entry = { e_id : string; e_shard : string; e_phase : phase }

type spec = { rules : rule list; entries : entry list }

(* --- classification -------------------------------------------------------- *)

let is_dir_rule r =
  let n = String.length r.path in
  n > 0 && Char.equal r.path.[n - 1] '/'

let class_of spec ~file =
  let file_rule =
    List.find_opt
      (fun r -> (not (is_dir_rule r)) && String.equal r.path file)
      spec.rules
  in
  let best_dir =
    List.fold_left
      (fun best r ->
        if is_dir_rule r && Callgraph.has_prefix ~prefix:r.path file then
          match best with
          | Some b when String.length b.path >= String.length r.path -> best
          | _ -> Some r
        else best)
      None spec.rules
  in
  match (file_rule, best_dir) with
  | Some r, _ | None, Some r -> Some (r.cls, r.why)
  | None, None -> None

let run_entries spec =
  List.filter (fun e -> match e.e_phase with Run -> true | Init -> false)
    spec.entries

(* --- validation ------------------------------------------------------------ *)

(* Spec-level defects, as messages; Shard turns them into S000 findings.
   A shard-crossing rule without a justification is a defect: the whole
   point of the class is the documented synchronization contract. *)
let validate spec =
  let errs = ref [] in
  List.iter
    (fun r ->
      match (r.cls, r.why) with
      | Shard_crossing, None ->
          errs :=
            Printf.sprintf
              "ownership rule '%s' declares shard-crossing state without a \
               justification; say what synchronizes the crossing (format: \
               module <path> shard-crossing -- <why>)"
              r.path
            :: !errs
      | _ -> ())
    spec.rules;
  let seen = Hashtbl.create 16 in
  List.iter
    (fun r ->
      if Hashtbl.mem seen r.path then
        errs :=
          Printf.sprintf "duplicate ownership rule for path '%s'" r.path
          :: !errs
      else Hashtbl.add seen r.path ())
    spec.rules;
  if List.is_empty (run_entries spec) then
    errs := "ownership spec declares no run-phase entry points" :: !errs;
  List.rev !errs

(* --- the repo's declared spec ---------------------------------------------- *)

(* Keep in sync with DESIGN.md §9 and ARCHITECTURE.md's ownership note.
   Directory rules classify a library wholesale; file rules carve out
   the exceptions (Proto is the wire format, not switch state; the
   switch's flow table is per-switch state, not transport; SGI's
   regrouping scratch belongs to the controller shard, not to the
   immutable grouping tables). *)
let default =
  {
    rules =
      [
        (* Per-domain simulator state: each shard owns an engine, its
           switches' FIBs, and the PRNG streams it draws from. *)
        { path = "lib/sim/"; cls = Shard_local; why = None };
        (* The domain-parallel engine's own crossing surface: the pool
           hands thunks across domains, the exchange carries events
           between shards, and the window coordinator owns the barrier. *)
        {
          path = "lib/sim/domain_pool.ml";
          cls = Shard_crossing;
          why =
            Some
              "the pool's mutex/condvar job handoff is the only blessed \
               cross-domain control transfer; thunks run on exactly one \
               worker and results join at the barrier";
        };
        {
          path = "lib/sim/exchange.ml";
          cls = Shard_crossing;
          why =
            Some
              "per-source outboxes are written only by the owning shard \
               inside its window and drained single-threaded at the \
               barrier in (time, src, seq) order — the deterministic \
               hand-off point between shards";
        };
        {
          path = "lib/sim/shard_engine.ml";
          cls = Shard_crossing;
          why =
            Some
              "the conservative window coordinator: it owns the barrier, \
               enforces the cross-shard latency bound on every post, and \
               is the only code that touches two shards' engines";
        };
        { path = "lib/switch/"; cls = Shard_local; why = None };
        { path = "lib/controller/"; cls = Shard_local; why = None };
        { path = "lib/baseline/"; cls = Shard_local; why = None };
        { path = "lib/util/"; cls = Shard_local; why = None };
        { path = "lib/bloom/"; cls = Shard_local; why = None };
        { path = "lib/graph/"; cls = Shard_local; why = None };
        { path = "lib/core/host_model.ml"; cls = Shard_local; why = None };
        { path = "lib/core/service_queue.ml"; cls = Shard_local; why = None };
        (* SGI's incremental-update scratch is controller-shard state;
           only the resulting Grouping.t values are read-only tables. *)
        { path = "lib/grouping/sgi.ml"; cls = Shard_local; why = None };
        (* The sanctioned crossing surface. *)
        {
          path = "lib/openflow/";
          cls = Shard_crossing;
          why =
            Some
              "channels and Reliable sessions are the inter-shard \
               transport; each session endpoint is pinned to one domain \
               and the wire between them is the synchronization point";
        };
        {
          path = "lib/openflow/flow_table.ml";
          cls = Shard_local;
          why = None;
        };
        {
          path = "lib/switch/proto.ml";
          cls = Shard_crossing;
          why =
            Some
              "the Proto grammar is the wire format crossing shards; \
               values are immutable messages, ownership transfers on send";
        };
        (* The binary codec has no state of its own: writers/readers are
           created per call and every frame is a fresh Bytes value, so
           encode on one shard / decode on another never alias. *)
        {
          path = "lib/wire/";
          cls = Shard_crossing;
          why =
            Some
              "the codec serializes messages into fresh Bytes frames at \
               the channel boundary; a frame is written once by the \
               sending shard and read by the receiving one, never shared \
               mutable state";
        };
        {
          path = "lib/core/network.ml";
          cls = Shard_crossing;
          why =
            Some
              "the one network assembly: it builds every logical shard's \
               engine, switches, host model, recorder and tracer, and \
               every channel, underlay frame, control action and receipt \
               between shards is a Shard_engine post carrying its link \
               latency; its management-plane uplink/term tables are the \
               synchronous arbitration point for a controller cluster's \
               mastership claims, which runs on one shard";
        };
        (* The controller cluster: each member's coordination state is
           pinned to its own controller domain; Network and the Coord
           grammar are the crossing fabric between those domains. *)
        { path = "lib/cluster/member.ml"; cls = Shard_local; why = None };
        {
          path = "lib/cluster/coord.ml";
          cls = Shard_crossing;
          why =
            Some
              "the Coord grammar is the inter-controller wire format; \
               values are immutable messages, ownership transfers on send";
        };
        {
          path = "lib/metrics/";
          cls = Shard_crossing;
          why =
            Some
              "the recorder aggregates counters from all shards; the \
               sharding PR keeps per-domain recorders and merges at \
               report time";
        };
        {
          path = "lib/trace/";
          cls = Shard_crossing;
          why =
            Some
              "the flight recorder is a global sink; per-domain buffers \
               are merged at export, never read back by simulated code";
        };
        (* Built during setup, immutable while the run loop is live. *)
        { path = "lib/topo/"; cls = Read_only_after_init; why = None };
        { path = "lib/grouping/"; cls = Read_only_after_init; why = None };
        { path = "lib/net/"; cls = Read_only_after_init; why = None };
        { path = "lib/core/params.ml"; cls = Read_only_after_init; why = None };
      ];
    entries =
      [
        (* The switch shard's run loop: the Fig. 5 data path plus the
           control/peer message dispatchers. *)
        {
          e_id = "Lazyctrl_switch.Edge_switch.handle_from_host";
          e_shard = "switch";
          e_phase = Run;
        };
        {
          e_id = "Lazyctrl_switch.Edge_switch.handle_underlay";
          e_shard = "switch";
          e_phase = Run;
        };
        {
          e_id = "Lazyctrl_switch.Edge_switch.handle_controller_message";
          e_shard = "switch";
          e_phase = Run;
        };
        {
          e_id = "Lazyctrl_switch.Edge_switch.handle_peer_message";
          e_shard = "switch";
          e_phase = Run;
        };
        (* The controller shard's run loop. *)
        {
          e_id = "Lazyctrl_controller.Controller.handle_message";
          e_shard = "controller";
          e_phase = Run;
        };
        (* The baseline OpenFlow plane shards the same way. *)
        {
          e_id = "Lazyctrl_baseline.Of_switch.handle_from_host";
          e_shard = "of-switch";
          e_phase = Run;
        };
        {
          e_id = "Lazyctrl_baseline.Of_switch.handle_underlay";
          e_shard = "of-switch";
          e_phase = Run;
        };
        {
          e_id = "Lazyctrl_baseline.Of_switch.handle_controller_message";
          e_shard = "of-switch";
          e_phase = Run;
        };
        {
          e_id = "Lazyctrl_baseline.Of_controller.handle_message";
          e_shard = "of-controller";
          e_phase = Run;
        };
        (* The window coordinator's run loop: drains the exchange and
           drives every shard's engine through the current window. *)
        {
          e_id = "Lazyctrl_sim.Shard_engine.run";
          e_shard = "exchange";
          e_phase = Run;
        };
        (* Setup surface, for the init/run distinction and the report. *)
        {
          e_id = "Lazyctrl_core.Network.create";
          e_shard = "setup";
          e_phase = Init;
        };
        {
          e_id = "Lazyctrl_core.Network.bootstrap";
          e_shard = "setup";
          e_phase = Init;
        };
        {
          e_id = "Lazyctrl_switch.Edge_switch.create";
          e_shard = "setup";
          e_phase = Init;
        };
        {
          e_id = "Lazyctrl_controller.Controller.create";
          e_shard = "setup";
          e_phase = Init;
        };
      ];
  }
