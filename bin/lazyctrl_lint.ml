(* lazyctrl-lint: determinism & protocol-invariant checks for the
   simulator sources.  See README "Static analysis" for the rule list.

   Exit status: by default the tool only reports — it exits 0 whatever
   it finds, so report-generating pipelines (e.g. [make lint-json]) can
   archive the output of a failing tree. Pass [--check] to gate: exit 1
   on gating findings; exit 3 when the only problem is stale allowlist
   entries (distinct, so CI can say "prune the allowlist" rather than
   "fix the code"). Exit 2 on usage error. *)

let usage =
  "lazyctrl_lint [--root DIR] [--allow FILE] [--format text|json|sarif] \
   [--check] [--rules FAMILIES] [--list-rules] \
   [--hotpath-report [--budget FILE] [--measured FILE]]"

type format = Text | Json | Sarif

let () =
  let root = ref "." in
  let allow = ref ".lazyctrl-lint-allow" in
  let format = ref Text in
  let check = ref false in
  let list_rules = ref false in
  let hotpath_report = ref false in
  let budget = ref "HOTPATH_budget" in
  let measured_file = ref None in
  let families = ref None in
  let set_format = function
    | "text" -> format := Text
    | "json" -> format := Json
    | "sarif" -> format := Sarif
    | other ->
        Printf.eprintf "unknown format '%s' (known: text, json, sarif)\n" other;
        exit 2
  in
  let set_families s =
    let fs =
      String.split_on_char ',' s
      |> List.map String.trim
      |> List.filter (fun f -> not (String.equal f ""))
      |> List.map String.uppercase_ascii
    in
    if List.is_empty fs then begin
      Printf.eprintf "--rules needs at least one family (e.g. --rules E,L)\n";
      exit 2
    end;
    List.iter
      (fun f ->
        if not (Lazyctrl_analysis.Rules.is_family f) then begin
          Printf.eprintf "unknown rule family '%s' (known: %s)\n" f
            (String.concat "," Lazyctrl_analysis.Rules.families);
          exit 2
        end)
      fs;
    families := Some fs
  in
  let spec =
    [
      ("--root", Arg.Set_string root, "DIR repository root to scan (default .)");
      ( "--allow",
        Arg.Set_string allow,
        "FILE allowlist path (default .lazyctrl-lint-allow, relative to \
         --root)" );
      ("--json", Arg.Unit (fun () -> format := Json), " emit the report as JSON (same as --format json)");
      ( "--format",
        Arg.String set_format,
        "FMT output format: text (default), json, or sarif (SARIF 2.1.0 \
         for code scanning)" );
      ( "--check",
        Arg.Set check,
        " gate: exit 1 on gating findings, exit 3 on stale allowlist \
         entries only (default: report only, exit 0)" );
      ( "--rules",
        Arg.String set_families,
        "FAMILIES comma-separated rule families to run (subset of \
         D,A,P,E,L,X,S,H; default all)" );
      ("--list-rules", Arg.Set list_rules, " list rule identifiers and exit");
      ( "--hotpath-report",
        Arg.Set hotpath_report,
        " emit the H00x hot-path cross-validation report and exit \
         (--format json or sarif; with --check, exit 1 on findings)" );
      ( "--budget",
        Arg.Set_string budget,
        "FILE minor-words-per-op budget file for --hotpath-report \
         (default HOTPATH_budget, relative to --root)" );
      ( "--measured",
        Arg.String (fun f -> measured_file := Some f),
        "FILE lib/perf report with measured hotpath probes (from \
         bench/main.exe --quick hotpath --json FILE); omitting it makes \
         every probe an unmeasured finding" );
    ]
  in
  Arg.parse spec
    (fun anon ->
      Printf.eprintf "unexpected argument %s\n%s\n" anon usage;
      exit 2)
    usage;
  if !list_rules then begin
    List.iter print_endline Lazyctrl_analysis.Rules.all;
    exit 0
  end;
  let allow_path =
    if Filename.is_relative !allow then Filename.concat !root !allow
    else !allow
  in
  if !hotpath_report then begin
    let open Lazyctrl_analysis in
    let measured =
      match !measured_file with
      | None -> []
      | Some file -> (
          match Lazyctrl_perf.Report.load file with
          | Ok results ->
              List.map
                (fun (r : Lazyctrl_perf.Measure.result) ->
                  (r.Lazyctrl_perf.Measure.name,
                   r.Lazyctrl_perf.Measure.minor_words_per_op))
                results
          | Error msg ->
              Printf.eprintf "cannot read measured report %s: %s\n" file msg;
              exit 2)
    in
    let r =
      Driver.hotpath_check ~root:!root ~allow_path ~budget_path:!budget
        ~measured ()
    in
    (match !format with
    | Sarif -> print_string (Sarif.of_findings r.Driver.hp_findings)
    | Json | Text -> print_string (Driver.hotpath_report_json r));
    exit (if !check && not (Driver.hotpath_clean r) then 1 else 0)
  end;
  let report =
    Lazyctrl_analysis.Driver.run ?families:!families ~root:!root ~allow_path ()
  in
  let open Lazyctrl_analysis in
  (match !format with
  | Json -> print_string (Driver.report_to_json report)
  | Sarif -> print_string (Sarif.of_report report)
  | Text ->
      List.iter
        (fun f -> print_endline (Finding.to_string f))
        report.Driver.findings;
      List.iter
        (fun f -> print_endline (Finding.to_string f))
        report.Driver.stale;
      List.iter
        (fun (file, msg) ->
          Printf.printf "%s: error: file did not parse: %s\n" file msg)
        report.Driver.parse_failures;
      List.iter
        (fun (file, note) -> Printf.printf "%s: note: %s\n" file note)
        report.Driver.callgraph_notes;
      Printf.printf
        "lazyctrl-lint: %d file(s) scanned, %d finding(s), %d suppressed by \
         allowlist, %d stale allowlist entr(ies)\n"
        report.Driver.files_scanned
        (List.length report.Driver.findings)
        (List.length report.Driver.suppressed)
        (List.length report.Driver.stale));
  let code =
    if not !check then 0
    else if not (Driver.clean report) then 1
    else if not (List.is_empty report.Driver.stale) then 3
    else 0
  in
  exit code
