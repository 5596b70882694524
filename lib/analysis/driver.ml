(* Lint driver: walks the source tree, parses every file ONCE into a
   shared cache, then feeds the same Parsetrees to all consumers — the
   per-file rules (D/A, module-level state), the protocol coverage
   check, and the call-graph passes (layering, interface hygiene, hot
   paths) — and filters the result through the allowlist.

   Family scoping: [families] restricts which rule families run (the
   CLI's [--rules D,L,...] flag).  Allowlist entries whose family did
   not run are exempt from staleness (they never had the chance to
   match). *)

type report = {
  findings : Finding.t list;  (* gating: unallowlisted + malformed allowlist *)
  suppressed : Finding.t list;  (* matched by an allowlist entry *)
  stale : Finding.t list;  (* allowlist entries that matched nothing *)
  files_scanned : int;
  parse_failures : (string * string) list;  (* file, parser message — once *)
  callgraph_notes : (string * string) list;
      (* (file, note): constructs the call-graph index could not fully
         resolve — the honest blind spots of the whole-program passes *)
}

(* Directories scanned for findings.  [test/] and [benchmark/] are
   scanned reference-only: their uses keep library exports alive for
   X001, but fixtures there exercise the rules and may use structural
   equality freely, and the benchmark is its own project, so they never
   yield findings. *)
let scan_dirs = [ "lib"; "bin"; "bench"; "examples" ]
let aux_dirs = [ "test"; "benchmark" ]

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let content = really_input_string ic n in
  close_in ic;
  content

let is_dir path = try Sys.is_directory path with Sys_error _ -> false

(* Repo-relative files with [suffix] under [rel], in sorted order
   (Sys.readdir order is platform-dependent). *)
let rec files_under ~root ~suffix rel acc =
  let abs = Filename.concat root rel in
  if not (is_dir abs) then acc
  else begin
    let names = Sys.readdir abs in
    Array.sort String.compare names;
    Array.fold_left
      (fun acc name ->
        let rel' = rel ^ "/" ^ name in
        if is_dir (Filename.concat abs name) then
          files_under ~root ~suffix rel' acc
        else if Rules.has_suffix ~suffix name then rel' :: acc
        else acc)
      acc names
  end

(* Per-file rules on one source: the Parsetree pass, or the parse error
   when the file does not parse. *)
let lint_source ~file ~src =
  Result.map (Ast_rules.scan ~file) (Parse_ml.parse ~file ~src)

(* --- parse cache ----------------------------------------------------------- *)

type cached = {
  c_file : string;
  c_parse : (Parsetree.structure, string) result;
}

let parse_cached ~root rel =
  let src = read_file (Filename.concat root rel) in
  { c_file = rel; c_parse = Parse_ml.parse ~file:rel ~src }

let cache_find cache rel =
  List.find_opt (fun c -> String.equal c.c_file rel) cache

(* Repo-relative files with [suffix] under any of [dirs], sorted. *)
let files_in ~root ~suffix dirs =
  List.concat_map (fun d -> files_under ~root ~suffix d []) dirs
  |> List.sort String.compare

let structures cache =
  List.filter_map
    (fun c -> match c.c_parse with Ok s -> Some (c.c_file, s) | Error _ -> None)
    cache

(* What both entry points start from: every scanned file parsed once,
   and the call graph over the parsed ones plus the reference-only
   files, built only when a whole-program pass forces it. *)
type loaded = {
  files : string list;
  cache : cached list;
  parsed : (string * Parsetree.structure) list;
  cg : Callgraph.t Lazy.t;
}

let load ~root =
  let files = files_in ~root ~suffix:".ml" scan_dirs in
  let cache = List.map (parse_cached ~root) files in
  let parsed = structures cache in
  let cg =
    lazy
      (let aux =
         (* reference-only files that fail to parse are dropped silently *)
         structures
           (List.map (parse_cached ~root) (files_in ~root ~suffix:".ml" aux_dirs))
       in
       Callgraph.build ~files:parsed ~aux)
  in
  { files; cache; parsed; cg }

(* --- protocol coverage ------------------------------------------------------ *)

let proto_file = "lib/switch/proto.ml"
let handler_files = [ "lib/switch/edge_switch.ml"; "lib/controller/controller.ml" ]

(* Structure for [rel] out of the shared cache: the protocol check is a
   consumer of the same single parse as everything else. *)
let structure_of cache rel =
  match cache_find cache rel with
  | None -> Error (Printf.sprintf "%s does not exist" rel)
  | Some { c_parse = Ok s; _ } -> Ok s
  | Some { c_parse = Error _; _ } ->
      (* the parse failure itself is already reported once, in
         [parse_failures]; here only the consequence is stated *)
      Error (Printf.sprintf "%s does not parse" rel)

let protocol_findings_cached cache =
  let fail ~rule msg =
    [ Finding.make ~file:"." ~line:1 ~rule ~severity:Finding.Error msg ]
  in
  match structure_of cache proto_file with
  | Error msg ->
      fail ~rule:Rules.p_proto_coverage
        (Printf.sprintf "cannot verify message coverage: %s" msg)
  | Ok proto_structure ->
      let handlers, errors =
        List.fold_left
          (fun (hs, errs) rel ->
            match structure_of cache rel with
            | Ok s -> ((rel, s) :: hs, errs)
            | Error msg ->
                ( hs,
                  fail ~rule:Rules.p_proto_coverage
                    (Printf.sprintf "cannot verify message coverage: %s" msg)
                  @ errs ))
          ([], []) handler_files
      in
      errors
      @ Proto_rules.check_coverage
          ~proto:(proto_file, proto_structure)
          ~handlers:(List.rev handlers) ()

(* Convenience for tests: parse the protocol files under [root] and run
   the same check the @lint alias runs. *)
let protocol_findings ~root =
  let rels = proto_file :: handler_files in
  let cache =
    List.filter_map
      (fun rel ->
        if Sys.file_exists (Filename.concat root rel) then
          Some (parse_cached ~root rel)
        else None)
      rels
  in
  protocol_findings_cached cache

(* --- entry point ----------------------------------------------------------- *)

let run ?(families = Rules.families) ~root ~allow_path () =
  let sel f = List.exists (String.equal f) families in
  let selected (finding : Finding.t) =
    String.equal finding.rule "allowlist"
    || sel (Rules.family_of finding.rule)
  in
  let allow, allow_findings = Allowlist.load allow_path in
  let { files; cache; parsed; cg } = load ~root in
  let parse_failures =
    List.filter_map
      (fun c ->
        match c.c_parse with
        | Ok _ -> None
        | Error msg -> Some (c.c_file, msg))
      cache
  in
  let per_file =
    if not (sel "D" || sel "A") then []
    else List.concat_map (fun (file, s) -> Ast_rules.scan ~file s) parsed
  in
  let module_state =
    if not (sel "S") then []
    else List.concat_map (fun (file, s) -> Mutinv.check ~file s) parsed
  in
  let proto = if sel "P" then protocol_findings_cached cache else [] in
  (* Whole-program passes over the shared call graph. *)
  let cg_notes = ref [] in
  let whole_program =
    if not (sel "L" || sel "X" || sel "H") then []
    else begin
      let cg = Lazy.force cg in
      cg_notes :=
        List.concat_map
          (fun (fi : Callgraph.finfo) ->
            if fi.Callgraph.f_aux then []
            else
              List.map
                (fun n -> (fi.Callgraph.f_file, n))
                fi.Callgraph.f_notes)
          (Callgraph.files cg);
      let l = if sel "L" then Layering.check cg else [] in
      let x =
        if sel "X" then begin
          let mli_files = files_in ~root ~suffix:".mli" scan_dirs in
          let intfs =
            List.filter_map
              (fun rel ->
                let src = read_file (Filename.concat root rel) in
                match Parse_ml.parse_intf ~file:rel ~src with
                | Ok s -> Some (rel, s)
                | Error _ -> None (* the .ml parse failure already reported *))
              mli_files
          in
          Deadcode.dead_exports cg ~intfs
          @ Deadcode.missing_mli ~ml_files:files ~mli_files
        end
        else []
      in
      let h =
        if sel "H" then
          Hotpath.check ~spec:Hotspec.default ~cg ~structures:parsed ()
        else []
      in
      l @ x @ h
    end
  in
  let all =
    List.filter selected (per_file @ module_state @ proto @ whole_program)
  in
  let suppressed, gating =
    List.partition
      (fun (f : Finding.t) -> Allowlist.permits allow ~file:f.file ~rule:f.rule)
      all
  in
  {
    findings = List.sort Finding.compare (allow_findings @ gating);
    suppressed = List.sort Finding.compare suppressed;
    stale =
      Allowlist.unused ~relevant:(fun rule -> sel (Rules.family_of rule)) allow;
    files_scanned = List.length files;
    parse_failures;
    callgraph_notes = !cg_notes;
  }

let clean report =
  List.is_empty report.findings && List.is_empty report.parse_failures

(* Lint reports are JSON trees rendered by the one shared printer. *)
module Json = Lazyctrl_util.Json

let finding_json (f : Finding.t) =
  Json.Obj
    [
      ("file", Json.Str f.file);
      ("line", Json.int f.line);
      ("col", Json.int f.col);
      ("rule", Json.Str f.rule);
      ("severity", Json.Str (Finding.severity_string f.severity));
      ("message", Json.Str f.message);
    ]

let findings_json findings = Json.List (List.map finding_json findings)

let report_to_json report =
  Json.to_string
    (Json.Obj
       [
         ("findings", findings_json report.findings);
         ("suppressed", findings_json report.suppressed);
         ("stale_allowlist", findings_json report.stale);
         ( "callgraph_notes",
           Json.List
             (List.map
                (fun (file, note) ->
                  Json.Obj [ ("file", Json.Str file); ("note", Json.Str note) ])
                report.callgraph_notes) );
         ( "parse_failures",
           Json.List
             (List.map (fun (file, _) -> Json.Str file) report.parse_failures) );
         ("files_scanned", Json.int report.files_scanned);
         ("clean", Json.Bool (clean report));
       ])

(* --- hotpath report --------------------------------------------------------- *)

(* The `make lint-hotpath` gate (_build/hotpath-report.json): the static
   H00x verdict per probe next to its committed budget and the measured
   minor-words-per-op, with the budget findings (H005) filtered through
   the same allowlist as everything else.  [measured] comes from a
   lib/perf report produced by bench/main.exe's hotpath targets; reading
   that file is the CLI's job. *)
type hotpath_report = {
  hp_probes : Hotpath.probe_status list;
  hp_rows : Hotbudget.row list;
  hp_findings : Finding.t list;  (* gating: unallowlisted static + dynamic *)
  hp_suppressed : Finding.t list;
}

let hotpath_check ~root ~allow_path ~budget_path ~measured () =
  let { parsed; cg; _ } = load ~root in
  let analysis =
    Hotpath.analyze ~spec:Hotspec.default ~cg:(Lazy.force cg)
      ~structures:parsed ()
  in
  let budget, budget_findings =
    let abs = Filename.concat root budget_path in
    if Sys.file_exists abs then begin
      let entries, errs = Hotbudget.parse (read_file abs) in
      ( entries,
        List.map
          (fun msg ->
            Finding.make ~file:budget_path ~line:1 ~rule:Rules.h_alloc_budget
              ~severity:Finding.Error msg)
          errs )
    end
    else
      ( [],
        [
          Finding.make ~file:budget_path ~line:1 ~rule:Rules.h_alloc_budget
            ~severity:Finding.Error
            (Printf.sprintf
               "budget file '%s' is missing; every declared probe needs a \
                committed minor-words-per-op budget"
               budget_path);
        ] )
  in
  let rows, dynamic =
    Hotbudget.evaluate ~budget_file:budget_path ~probes:analysis.Hotpath.a_probes
      ~budget ~measured
  in
  (* Malformed-allowlist findings gate in the main lint run, not here. *)
  let allow, _ = Allowlist.load allow_path in
  let suppressed, gating =
    List.partition
      (fun (f : Finding.t) -> Allowlist.permits allow ~file:f.file ~rule:f.rule)
      (analysis.Hotpath.a_findings @ budget_findings @ dynamic)
  in
  {
    hp_probes = analysis.Hotpath.a_probes;
    hp_rows = rows;
    hp_findings = List.sort Finding.compare gating;
    hp_suppressed = List.sort Finding.compare suppressed;
  }

let hotpath_clean r = List.is_empty r.hp_findings

let hotpath_report_json r =
  let opt_num = function None -> Json.Null | Some v -> Json.Num v in
  let probe_json (row : Hotbudget.row) =
    let entries =
      match
        List.find_opt
          (fun (p : Hotpath.probe_status) ->
            String.equal p.Hotpath.p_probe row.Hotbudget.r_probe)
          r.hp_probes
      with
      | Some p -> p.Hotpath.p_entries
      | None -> []
    in
    Json.Obj
      [
        ("probe", Json.Str row.Hotbudget.r_probe);
        ("entries", Json.List (List.map (fun e -> Json.Str e) entries));
        ("static_alloc_sites", Json.int row.Hotbudget.r_static_sites);
        ("budget_words_per_op", opt_num row.Hotbudget.r_budget);
        ("measured_words_per_op", opt_num row.Hotbudget.r_measured);
        ("verdict", Json.Str (Hotbudget.verdict_name row.Hotbudget.r_verdict));
      ]
  in
  Json.to_string
    (Json.Obj
       [
         ("probes", Json.List (List.map probe_json r.hp_rows));
         ("findings", findings_json r.hp_findings);
         ("suppressed", findings_json r.hp_suppressed);
         ("clean", Json.Bool (hotpath_clean r));
       ])
