(* Architecture layering enforcement (L00x).

   The paper's control plane only stays "lazy" if the separation it
   describes is structural: edge switches forward intra-group traffic
   with purely local state (L-FIB/G-FIB) and talk to the central
   controller exclusively through the in-band [Proto] message grammar.
   Devolved-controller designs fail exactly when switches quietly lean
   on central state, so this pass turns the layering into a checked
   property rather than a convention.

   L001 — the declared dependency spec below (a tightened mirror of the
   dune library graph: primitives at the bottom, the simulator core and
   experiment harnesses at the top, and the [analysis] library outside
   the simulator entirely).

   L002 — the paper-specific separation invariant:
     * nothing under [lib/switch] may reference [Lazyctrl_controller]
       at all (a switch that calls controller internals is no longer an
       edge switch);
     * [lib/controller] may reach into [Lazyctrl_switch] only through
       the [Proto] module — message construction and inspection — never
       through [Edge_switch]/[Lfib]/[Gfib] internals. *)

(* lib dir -> lib dirs it may reference.  Keep in sync with DESIGN.md's
   "Analysis architecture" section and the dune library graph. *)
let allowed_deps =
  [
    ("util", []);
    ("bloom", []);
    ("net", []);
    (* The perf measurement layer sits outside the simulation: it may
       not see (or be seen by) any simulated component, so wall timing
       can never leak into event ordering.  It shares only util's JSON. *)
    ("perf", [ "util" ]);
    ("sim", [ "util" ]);
    ("graph", [ "util" ]);
    ("metrics", [ "util"; "sim" ]);
    (* The flight recorder is a sink: components above may emit events
       into it, but it only sees primitives — so tracing can never feed
       back into simulated behaviour. *)
    ("trace", [ "util"; "sim"; "net" ]);
    ("openflow", [ "util"; "sim"; "net"; "trace" ]);
    (* The binary codec sits beside openflow, not inside it: channels
       accept encode/decode as plain closures, so openflow stays ignorant
       of the wire format while switch and core plug it in. *)
    ("wire", [ "util"; "sim"; "net"; "openflow" ]);
    ("topo", [ "util"; "sim"; "net" ]);
    ("grouping", [ "util"; "net"; "graph" ]);
    ("traffic", [ "util"; "sim"; "net"; "graph"; "topo" ]);
    ("switch", [ "util"; "sim"; "net"; "bloom"; "openflow"; "wire"; "trace" ]);
    ("baseline", [ "util"; "sim"; "net"; "openflow" ]);
    ( "controller",
      [
        "util"; "sim"; "net"; "graph"; "grouping"; "openflow"; "wire";
        "switch"; "trace";
      ] );
    (* The controller cluster's member logic is written against a small
       env of send/claim/probe callbacks, so it sits just above the
       controller; core wires it into the one network assembly. *)
    ( "cluster",
      [ "util"; "sim"; "net"; "openflow"; "switch"; "controller" ] );
    ( "core",
      [
        "util"; "sim"; "net"; "bloom"; "graph"; "openflow"; "wire"; "topo";
        "traffic"; "grouping"; "switch"; "controller"; "cluster"; "baseline";
        "metrics"; "trace";
      ] );
    (* Chaos drives core/controller from the outside; nothing below it may
       ever reference it back — fault injection must stay optional. *)
    ( "chaos",
      [
        "util"; "sim"; "net"; "graph"; "openflow"; "topo"; "switch";
        "controller"; "cluster"; "core"; "trace";
      ] );
    ( "experiments",
      [
        "util"; "sim"; "net"; "bloom"; "graph"; "openflow"; "topo"; "traffic";
        "grouping"; "switch"; "controller"; "baseline"; "metrics"; "core";
        "chaos"; "cluster"; "trace";
      ] );
    (* The lint must never depend on the code it judges; util's JSON
       printer simulates nothing. *)
    ("analysis", [ "util" ]);
  ]

(* The only switch module the controller may name: the message grammar. *)
let controller_switch_surface = [ "Proto" ]

let target_of cg (fi : Callgraph.finfo) (r : Callgraph.fref) =
  (* (target lib dir, referenced module inside it if known) *)
  let expand path =
    match path with
    | head :: rest -> (
        match List.assoc_opt head fi.Callgraph.f_aliases with
        | Some target -> target @ rest
        | None -> path)
    | [] -> path
  in
  match expand r.Callgraph.r_path with
  | [] -> None
  | head :: rest -> (
      match Callgraph.lib_of_wrapper head with
      | Some d -> Some (d, match rest with m :: _ -> Some m | [] -> None)
      | None ->
          (* a bare module brought into scope by [open Lazyctrl_x] *)
          let from_open o =
            match o with
            | w :: _ -> (
                match Callgraph.lib_of_wrapper w with
                | Some d
                  when List.exists (String.equal head)
                         (Callgraph.modules_of_lib cg d) ->
                    Some (d, Some head)
                | _ -> None)
            | [] -> None
          in
          List.find_map from_open fi.Callgraph.f_opens)

let check cg =
  let findings = ref [] in
  let emit ~file ~line ~col ~rule msg =
    findings :=
      Finding.make ~file ~line ~col ~rule ~severity:Finding.Error msg
      :: !findings
  in
  List.iter
    (fun (fi : Callgraph.finfo) ->
      match (fi.Callgraph.f_aux, fi.Callgraph.f_lib) with
      | true, _ | _, None -> ()
      | false, Some own ->
          List.iter
            (fun (r : Callgraph.fref) ->
              match target_of cg fi r with
              | None -> ()
              | Some (target, _) when String.equal target own -> ()
              | Some (target, m) ->
                  let file = fi.Callgraph.f_file in
                  let line = r.Callgraph.r_line
                  and col = r.Callgraph.r_col in
                  if String.equal own "switch" && String.equal target "controller"
                  then
                    emit ~file ~line ~col ~rule:Rules.l_lazy_separation
                      "lib/switch references Lazyctrl_controller: edge \
                       switches must stay lazy — local L-FIB/G-FIB state \
                       plus Proto messages only, never controller internals"
                  else if
                    String.equal own "controller"
                    && String.equal target "switch"
                    && (match m with
                       | Some m ->
                           not
                             (List.exists (String.equal m)
                                controller_switch_surface)
                       | None -> false)
                  then
                    emit ~file ~line ~col ~rule:Rules.l_lazy_separation
                      (Printf.sprintf
                         "lib/controller references Lazyctrl_switch.%s: the \
                          controller drives edge switches only through the \
                          Proto message grammar, not switch internals"
                         (Option.value m ~default:"?"))
                  else if
                    (match List.assoc_opt own allowed_deps with
                    | Some deps ->
                        not (List.exists (String.equal target) deps)
                    | None -> false)
                    (* unknown own lib: no declared spec, stay silent *)
                  then
                    emit ~file ~line ~col ~rule:Rules.l_layering
                      (Printf.sprintf
                         "lib/%s references Lazyctrl_%s, which the declared \
                          layering (lib/analysis/layering.ml) does not \
                          allow; either the reference is a leak or the spec \
                          needs a deliberate amendment"
                         own target))
            fi.Callgraph.f_refs)
    (Callgraph.files cg);
  List.sort_uniq Finding.compare !findings
