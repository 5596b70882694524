(* Hot-path allocation-discipline checks (H00x): the code against the
   Hotspec — whole-program, over the same Callgraph the L/X passes
   use.

   H000 — the spec itself is malformed: validation defects, a hot entry
   or cold boundary that no longer resolves to a definition, a cold
   boundary no hot region actually reaches (stale).  Spec rot would
   silently blind the other rules.

   H001 — an allocation site (Allocsites) inside a definition reachable
   from a hot entry without an intervening cold boundary.  The finding
   carries a witness call chain from the entry.

   H002 — polymorphic compare/hash or a call through a record field /
   array element on a hot path: dynamic dispatch the inliner cannot see
   through.

   H003 — exception-based control flow (raise or try...with) inside the
   hot region.

   The measured half is Hotbudget: each probe's minor-words-per-op from
   bench/main.exe's hotpath targets against its committed budget
   (H005). *)

let spec_file = "lib/analysis/hotspec.ml"

(* BFS over call edges that does not expand through cold boundaries; a
   boundary encountered as a callee is recorded in [touched] (for the
   staleness check) but never visited.  Callee lists are sorted and the
   queue is FIFO, so witness chains are deterministic. *)
let reach_hot cg ~cold ~touched ~from =
  let parent = Hashtbl.create 256 in
  let visited = Hashtbl.create 256 in
  Hashtbl.replace visited from ();
  let q = Queue.create () in
  Queue.push from q;
  while not (Queue.is_empty q) do
    let id = Queue.pop q in
    List.iter
      (fun callee ->
        if Hashtbl.mem cold callee then Hashtbl.replace touched callee ()
        else if not (Hashtbl.mem visited callee) then begin
          Hashtbl.replace visited callee ();
          Hashtbl.replace parent callee id;
          Queue.push callee q
        end)
      (Callgraph.callees cg id)
  done;
  (visited, parent)

let shorten id =
  match String.split_on_char '.' id with
  | w :: rest when Option.is_some (Callgraph.lib_of_wrapper w) ->
      String.concat "." rest
  | _ -> id

let chain_to parent ~from ~target =
  let rec up id acc =
    if String.equal id from then from :: acc
    else
      match Hashtbl.find_opt parent id with
      | Some p -> up p (id :: acc)
      | None -> id :: acc
  in
  up target []

let format_chain parent ~from ~target =
  String.concat " -> " (List.map shorten (chain_to parent ~from ~target))

type probe_status = {
  p_probe : string;
  p_entries : string list;  (** resolved hot-entry def ids *)
  p_alloc_sites : int;
      (** H001-class sites statically reachable, allowlisted or not:
          zero means the probe claims to be allocation-free *)
}

type analysis = { a_findings : Finding.t list; a_probes : probe_status list }

let analyze ~(spec : Hotspec.spec) ~cg ~structures () =
  let findings = ref [] in
  let emit ~file ~line ?(col = 0) ~rule ~severity msg =
    findings := Finding.make ~file ~line ~col ~rule ~severity msg :: !findings
  in
  (* H000: spec validation + resolution *)
  List.iter
    (fun msg ->
      emit ~file:spec_file ~line:1 ~rule:Rules.h_spec ~severity:Finding.Error
        msg)
    (Hotspec.validate spec);
  let resolved =
    List.filter
      (fun (e : Hotspec.entry) ->
        match Callgraph.find_def cg e.Hotspec.h_id with
        | Some _ -> true
        | None ->
            emit ~file:spec_file ~line:1 ~rule:Rules.h_spec
              ~severity:Finding.Error
              (Printf.sprintf
                 "hot entry '%s' does not resolve to a definition; the \
                  hot-path spec has drifted from the code"
                 e.Hotspec.h_id);
            false)
      spec.Hotspec.hot
  in
  let cold = Hashtbl.create 16 in
  List.iter
    (fun (b : Hotspec.boundary) ->
      match Callgraph.find_def cg b.Hotspec.b_id with
      | Some _ -> Hashtbl.replace cold b.Hotspec.b_id ()
      | None ->
          emit ~file:spec_file ~line:1 ~rule:Rules.h_spec
            ~severity:Finding.Error
            (Printf.sprintf
               "cold boundary '%s' does not resolve to a definition; \
                remove it or fix the spec"
               b.Hotspec.b_id))
    spec.Hotspec.cold;
  (* Reachability per entry, in (probe, id) order so witness-chain
     ownership below is deterministic. *)
  let order =
    List.sort
      (fun (a : Hotspec.entry) (b : Hotspec.entry) ->
        match String.compare a.Hotspec.h_probe b.Hotspec.h_probe with
        | 0 -> String.compare a.Hotspec.h_id b.Hotspec.h_id
        | c -> c)
      resolved
  in
  let touched = Hashtbl.create 16 in
  let reaches =
    List.map
      (fun (e : Hotspec.entry) ->
        (e, reach_hot cg ~cold ~touched ~from:e.Hotspec.h_id))
      order
  in
  List.iter
    (fun (b : Hotspec.boundary) ->
      if Hashtbl.mem cold b.Hotspec.b_id && not (Hashtbl.mem touched b.Hotspec.b_id)
      then
        emit ~file:spec_file ~line:1 ~rule:Rules.h_spec
          ~severity:Finding.Error
          (Printf.sprintf
             "cold boundary '%s' is stale: no hot entry reaches it; \
              remove it or fix the spec"
             b.Hotspec.b_id))
    spec.Hotspec.cold;
  (* Allocation sites, attributed to their enclosing definition. *)
  let sites_of_def : (string, Allocsites.site list) Hashtbl.t =
    Hashtbl.create 128
  in
  List.iter
    (fun (file, structure) ->
      List.iter
        (fun (s : Allocsites.site) ->
          match
            Callgraph.def_spanning cg ~file ~line:s.Allocsites.s_line
              ~col:s.Allocsites.s_col
          with
          | Some d ->
              let prev =
                Option.value ~default:[]
                  (Hashtbl.find_opt sites_of_def d.Callgraph.d_id)
              in
              Hashtbl.replace sites_of_def d.Callgraph.d_id (s :: prev)
          | None -> ())
        (Allocsites.scan structure))
    structures;
  (* The first entry (in [order]) reaching a definition owns its witness
     chain; each site is reported once. *)
  let owner = Hashtbl.create 256 in
  List.iter
    (fun id ->
      let rec first = function
        | [] -> ()
        | ((e : Hotspec.entry), (visited, parent)) :: rest ->
            if Hashtbl.mem visited id then
              Hashtbl.replace owner id (e, parent)
            else first rest
      in
      first reaches)
    (Callgraph.def_ids cg);
  List.iter
    (fun (fi : Callgraph.finfo) ->
      List.iter
        (fun (d : Callgraph.def) ->
          match Hashtbl.find_opt owner d.Callgraph.d_id with
          | None -> ()
          | Some ((e : Hotspec.entry), parent) ->
              let chain =
                format_chain parent ~from:e.Hotspec.h_id
                  ~target:d.Callgraph.d_id
              in
              List.iter
                (fun (s : Allocsites.site) ->
                  let rule = Allocsites.rule_of s.Allocsites.s_kind in
                  let severity, advice =
                    if String.equal rule Rules.h_hot_alloc then
                      ( Finding.Error,
                        "the hot region must stay allocation-free: hoist \
                         or pool the value, move the work behind a \
                         declared cold boundary (lib/analysis/hotspec.ml), \
                         or allowlist with a justification" )
                    else if String.equal rule Rules.h_hot_indirect then
                      ( Finding.Warning,
                        "dynamic dispatch on the hot path defeats \
                         inlining; call the target directly or justify \
                         the indirection" )
                    else
                      ( Finding.Error,
                        "exceptions as control flow allocate and unwind \
                         on the hot path; return a variant or sentinel \
                         instead" )
                  in
                  emit ~file:fi.Callgraph.f_file ~line:s.Allocsites.s_line
                    ~col:s.Allocsites.s_col ~rule ~severity
                    (Printf.sprintf "%s on the hot path [%s]: %s — %s"
                       s.Allocsites.s_desc e.Hotspec.h_probe chain advice))
                (List.rev
                   (Option.value ~default:[]
                      (Hashtbl.find_opt sites_of_def d.Callgraph.d_id))))
        fi.Callgraph.f_defs)
    (Callgraph.files cg);
  (* Per-probe static tally, reported next to the measured numbers. *)
  let probes =
    List.map
      (fun probe ->
        let entries =
          List.filter
            (fun (e : Hotspec.entry) ->
              String.equal e.Hotspec.h_probe probe)
            order
        in
        let reached_by_probe id =
          List.exists
            (fun ((e : Hotspec.entry), (visited, _)) ->
              String.equal e.Hotspec.h_probe probe && Hashtbl.mem visited id)
            reaches
        in
        let alloc_sites =
          List.fold_left
            (fun acc id ->
              if reached_by_probe id then
                acc
                + List.length
                    (List.filter
                       (fun (s : Allocsites.site) ->
                         Allocsites.is_alloc s.Allocsites.s_kind)
                       (Option.value ~default:[]
                          (Hashtbl.find_opt sites_of_def id)))
              else acc)
            0 (Callgraph.def_ids cg)
        in
        {
          p_probe = probe;
          p_entries = List.map (fun (e : Hotspec.entry) -> e.Hotspec.h_id) entries;
          p_alloc_sites = alloc_sites;
        })
      (Hotspec.probes spec)
  in
  {
    a_findings = List.sort Finding.compare !findings;
    a_probes = probes;
  }

let check ~spec ~cg ~structures () = (analyze ~spec ~cg ~structures ()).a_findings
