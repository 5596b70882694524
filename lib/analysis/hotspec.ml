(* Declared hot-path spec for the H00x allocation-discipline family.

   LazyCtrl's thesis is that the common case never leaves the edge: the
   L-FIB/G-FIB datapath absorbs most traffic and the controller only sees
   misses.  That makes the edge datapath — together with the event loop
   that drives it and the probe structures it leans on — the hot loop of
   the whole system, and ROADMAP item 2's scale-out only pays off if that
   loop stays allocation-free.  PR 4 hand-built the no-alloc pieces (flat
   int heap, word-level Bloom probes, G-FIB candidate iteration); this
   spec is what *keeps* them that way.

   A hot entry names a definition (Callgraph's naming) whose whole static
   call region must be allocation-free, and ties it to a measurement
   probe (a bench/main.exe hotpath target name) whose measured
   minor-words-per-op is judged against a committed budget (Hotbudget).  A
   cold boundary names a definition where the discipline deliberately
   stops — reachable from a hot entry but excused, with a written
   justification (cold-start growth, first-packet learning, the punt
   path).  Undocumented boundaries are exactly the rot this spec exists
   to prevent, so the justification is mandatory. *)

type entry = { h_probe : string; h_id : string }
type boundary = { b_id : string; b_why : string }
type spec = { hot : entry list; cold : boundary list }

(* Probe names, deduplicated: several entries may share one probe (the
   four-way edge dispatch is measured as a single datapath probe). *)
let probes spec =
  List.sort_uniq String.compare (List.map (fun e -> e.h_probe) spec.hot)

(* --- validation ------------------------------------------------------------ *)

(* Spec-level defects, as messages; Hotpath turns them into H000 findings
   alongside the resolution/staleness checks that need the call graph. *)
let validate spec =
  let errs = ref [] in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun e ->
      if Hashtbl.mem seen e.h_id then
        errs :=
          Printf.sprintf "duplicate hot entry '%s'" e.h_id :: !errs
      else Hashtbl.add seen e.h_id ())
    spec.hot;
  let seen_cold = Hashtbl.create 16 in
  List.iter
    (fun b ->
      if Hashtbl.mem seen_cold b.b_id then
        errs :=
          Printf.sprintf "duplicate cold boundary '%s'" b.b_id :: !errs
      else Hashtbl.add seen_cold b.b_id ();
      if Hashtbl.mem seen b.b_id then
        errs :=
          Printf.sprintf
            "'%s' is declared both hot entry and cold boundary" b.b_id
          :: !errs;
      if String.equal (String.trim b.b_why) "" then
        errs :=
          Printf.sprintf
            "cold boundary '%s' has no justification; say why allocation \
             is acceptable there"
            b.b_id
          :: !errs)
    spec.cold;
  if List.is_empty spec.hot then
    errs := "hot-path spec declares no hot entries" :: !errs;
  List.rev !errs

(* --- the repo's declared spec ---------------------------------------------- *)

(* Keep in sync with DESIGN.md §10, ARCHITECTURE.md's hot-region note,
   the hotpath probe targets in bench/main.ml, and HOTPATH_budget.  Probe
   names are the bench target's measurement names, prefixed "hp-". *)
let default =
  {
    hot =
      [
        (* The simulator's event loop: one step per event, millions per
           run — this is the multiplier under everything else. *)
        { h_probe = "hp-engine-step"; h_id = "Lazyctrl_sim.Engine.step" };
        (* The Fig. 5 edge datapath: packets from hosts and from the
           underlay.  (The controller/peer message dispatchers are the
           lazy *slow* path by the paper's own argument — controller
           involvement is what the design makes rare — so they are not
           hot entries.) *)
        {
          h_probe = "hp-edge-datapath";
          h_id = "Lazyctrl_switch.Edge_switch.handle_from_host";
        };
        {
          h_probe = "hp-edge-datapath";
          h_id = "Lazyctrl_switch.Edge_switch.handle_underlay";
        };
        (* The per-packet probe structures the datapath leans on. *)
        { h_probe = "hp-bloom-query"; h_id = "Lazyctrl_bloom.Bloom.mem" };
        {
          h_probe = "hp-lfib-lookup";
          h_id = "Lazyctrl_switch.Lfib.lookup_mac";
        };
        {
          h_probe = "hp-gfib-probe";
          h_id = "Lazyctrl_switch.Gfib.iter_candidates_mac";
        };
        (* The wire codec's decode: every control-plane message crosses a
           channel as bytes (DESIGN.md §13), and the miss-path frames —
           buffered Packet_in, Flow_mod — are the decode hot path.  The
           decoded message value itself is a necessary allocation, so the
           probe's budget in HOTPATH_budget is nonzero and prices exactly
           that materialization (allowlisted H001 residue in wire.ml). *)
        { h_probe = "hp-wire-decode"; h_id = "Lazyctrl_wire.Wire.decode" };
      ];
    cold =
      [
        {
          b_id = "Lazyctrl_sim.Engine.grow_slots";
          b_why =
            "cold-start table growth: amortized doubling, quiet once the \
             slot table reaches steady state";
        };
        {
          b_id = "Lazyctrl_switch.Edge_switch.punt";
          b_why =
            "the punt is the controller-involvement slow path; LazyCtrl's \
             whole design makes it rare, and Fig. 7's laziness verdicts \
             plus the trace recorder keep that honest";
        };
        {
          b_id = "Lazyctrl_switch.Lfib.learn";
          b_why =
            "first-packet host learning: bounded by host arrivals, not \
             packet rate";
        };
        {
          b_id = "Lazyctrl_switch.Edge_switch.advertise_pending";
          b_why =
            "state advertisement only fires when the L-FIB changed (host \
             learned/forgotten): bounded by host churn, and it is the \
             lazy control plane itself, not forwarding";
        };
        {
          b_id = "Lazyctrl_switch.Edge_switch.handle_arp_request";
          b_why =
            "address resolution is first-contact work: established flows \
             take data_path and never re-enter it, so its rate is bounded \
             by new-flow arrivals (the paper's lazy control events)";
        };
        {
          b_id = "Lazyctrl_switch.Edge_switch.flood_local";
          b_why =
            "tenant-scoped flooding is the broadcast fallback action, \
             bounded by broadcast rate, not unicast forwarding";
        };
        {
          b_id = "Lazyctrl_switch.Edge_switch.report_false_positive";
          b_why =
            "misdelivery telemetry (off by default): fires at the Bloom \
             false-positive rate epsilon, not the packet rate";
        };
        {
          b_id = "Lazyctrl_switch.Gfib.rebuild_peer_cache";
          b_why =
            "peer-cache rebuild after a membership change \
             (set_peer/drop_peer): amortized over every packet probed \
             between group reconfigurations";
        };
        {
          b_id = "Lazyctrl_switch.Edge_switch.trace";
          b_why =
            "flight-recorder emission: the whole body sits under the \
             Tracer.enabled guard, so the untraced fast path allocates \
             nothing (the untraced packet-replay bench keeps that honest); with \
             tracing on, recording the event is the point";
        };
        {
          b_id = "Lazyctrl_switch.Edge_switch.trace_pkt";
          b_why =
            "flight-recorder emission, same guard discipline as \
             Edge_switch.trace";
        };
      ];
  }
