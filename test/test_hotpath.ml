(* H00x hot-path allocation-discipline tests: the spec format, the
   allocation-site inference, the reachability rules, the dynamic
   cross-validation against measured minor-words-per-op, and the
   repo-wide gates (`make lint-hotpath`).

   The exit-code matrix at the bottom shells out to the built
   lazyctrl_lint.exe (a dune dep of the test stanza), so it validates
   the real CLI gating surface per rule family. *)

open Lazyctrl_analysis

let check = Alcotest.check

let rules_of findings = List.map (fun (f : Finding.t) -> f.Finding.rule) findings
let has rule findings = List.exists (String.equal rule) (rules_of findings)

let has_substring hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i =
    i + ln <= lh && (String.equal (String.sub hay i ln) needle || go (i + 1))
  in
  go 0

let parse_structure ~file src =
  match Parse_ml.parse ~file ~src with
  | Ok s -> s
  | Error msg -> Alcotest.failf "fixture %s did not parse: %s" file msg

let parse_file file src = (file, parse_structure ~file src)

let read_file path = In_channel.with_open_text path In_channel.input_all

(* --- hot-path spec (Hotspec) ------------------------------------------------ *)

let hotspec_tests =
  [
    Alcotest.test_case "default spec validates clean" `Quick (fun () ->
        check (Alcotest.list Alcotest.string) "no defects" []
          (Hotspec.validate Hotspec.default));
    Alcotest.test_case "default spec covers the paper's hot loop" `Quick
      (fun () ->
        (* Engine event loop, edge datapath, Bloom probe, L-FIB and
           G-FIB lookups: the ISSUE's required coverage. *)
        let ids =
          List.map (fun (e : Hotspec.entry) -> e.Hotspec.h_id)
            Hotspec.default.Hotspec.hot
        in
        List.iter
          (fun id ->
            check Alcotest.bool (Printf.sprintf "declares %s" id) true
              (List.mem id ids))
          [
            "Lazyctrl_sim.Engine.step";
            "Lazyctrl_switch.Edge_switch.handle_from_host";
            "Lazyctrl_switch.Edge_switch.handle_underlay";
            "Lazyctrl_bloom.Bloom.mem";
            "Lazyctrl_switch.Lfib.lookup_mac";
            "Lazyctrl_switch.Gfib.iter_candidates_mac";
          ]);
    Alcotest.test_case "cold boundary without a why is rejected" `Quick
      (fun () ->
        let spec =
          {
            Hotspec.hot = [ { Hotspec.h_probe = "p"; h_id = "A.f" } ];
            cold = [ { Hotspec.b_id = "A.g"; b_why = "  " } ];
          }
        in
        match Hotspec.validate spec with
        | [ msg ] ->
            check Alcotest.bool "names the boundary" true
              (has_substring msg "A.g")
        | defects ->
            Alcotest.failf "expected one defect, got %d" (List.length defects));
    Alcotest.test_case "duplicates and both-hot-and-cold are defects" `Quick
      (fun () ->
        let spec =
          {
            Hotspec.hot =
              [
                { Hotspec.h_probe = "p"; h_id = "A.f" };
                { Hotspec.h_probe = "q"; h_id = "A.f" };
              ];
            cold = [ { Hotspec.b_id = "A.f"; b_why = "also cold" } ];
          }
        in
        let defects = Hotspec.validate spec in
        check Alcotest.bool "duplicate hot entry reported" true
          (List.exists (fun m -> has_substring m "duplicate hot entry") defects);
        check Alcotest.bool "hot+cold conflict reported" true
          (List.exists
             (fun m -> has_substring m "both hot entry and cold boundary")
             defects));
    Alcotest.test_case "probes deduplicate shared probe names" `Quick
      (fun () ->
        let spec =
          {
            Hotspec.hot =
              [
                { Hotspec.h_probe = "p"; h_id = "A.f" };
                { Hotspec.h_probe = "p"; h_id = "A.g" };
              ];
            cold = [];
          }
        in
        check (Alcotest.list Alcotest.string) "one probe" [ "p" ]
          (Hotspec.probes spec));
  ]

(* --- allocation-site inference (Allocsites) --------------------------------- *)

let sites_of src =
  Allocsites.scan (parse_structure ~file:"lib/fixture/f.ml" src)

let kinds_of src =
  List.map (fun (s : Allocsites.site) -> s.Allocsites.s_kind) (sites_of src)

let allocsites_tests =
  [
    Alcotest.test_case "runtime closures and tuples are sites" `Quick
      (fun () ->
        let ks = kinds_of "let f xs = List.map (fun x -> (x, x)) xs" in
        check Alcotest.bool "closure site" true
          (List.memq Allocsites.Closure ks);
        check Alcotest.bool "tuple site" true (List.memq Allocsites.Tuple ks));
    Alcotest.test_case "the fun spine of a definition is not a site" `Quick
      (fun () ->
        check (Alcotest.list Alcotest.string) "no sites" []
          (List.map
             (fun (s : Allocsites.site) ->
               Allocsites.kind_name s.Allocsites.s_kind)
             (sites_of "let f x y = x + y")));
    Alcotest.test_case "match on a literal tuple scrutinee is free" `Quick
      (fun () ->
        (* [match (a, b) with ...] compiles to a multi-column match; the
           tuple is never built. *)
        check (Alcotest.list Alcotest.string) "no sites" []
          (List.map
             (fun (s : Allocsites.site) ->
               Allocsites.kind_name s.Allocsites.s_kind)
             (sites_of
                "let f a b = match (a, b) with 0, 0 -> 1 | _, _ -> 2"));
        (* ...but a returned tuple is a real allocation. *)
        check Alcotest.bool "returned tuple is a site" true
          (List.memq Allocsites.Tuple (kinds_of "let f a b = (a, b)")));
    Alcotest.test_case "init-time bindings are skipped" `Quick (fun () ->
        check (Alcotest.list Alcotest.string) "no sites" []
          (List.map
             (fun (s : Allocsites.site) ->
               Allocsites.kind_name s.Allocsites.s_kind)
             (sites_of "let table = [ (1, \"a\"); (2, \"b\") ]")));
    Alcotest.test_case "trace-guard suppression" `Quick (fun () ->
        check (Alcotest.list Alcotest.string) "guarded alloc not a site" []
          (List.map
             (fun (s : Allocsites.site) ->
               Allocsites.kind_name s.Allocsites.s_kind)
             (sites_of
                "let f t x = if Tracer.enabled t then ignore (x, x)"));
        check Alcotest.bool "unguarded twin is a site" true
          (List.memq Allocsites.Tuple
             (kinds_of "let f b x = if b then ignore (x, x)")));
    Alcotest.test_case "kind classification drives the right H rule" `Quick
      (fun () ->
        check Alcotest.string "ref -> H001" Rules.h_hot_alloc
          (Allocsites.rule_of Allocsites.Ref);
        check Alcotest.string "indirect -> H002" Rules.h_hot_indirect
          (Allocsites.rule_of Allocsites.Indirect);
        check Alcotest.string "raise -> H003" Rules.h_hot_raise
          (Allocsites.rule_of Allocsites.Raise);
        check Alcotest.bool "closure allocates" true
          (Allocsites.is_alloc Allocsites.Closure);
        check Alcotest.bool "poly compare does not count as alloc" false
          (Allocsites.is_alloc Allocsites.Poly);
        check Alcotest.string "names are stable" "closure"
          (Allocsites.kind_name Allocsites.Closure));
    Alcotest.test_case "raise swallows its payload construction" `Quick
      (fun () ->
        let ks = kinds_of "let f x = raise (Failure x)" in
        check Alcotest.bool "one raise site" true
          (List.memq Allocsites.Raise ks);
        check Alcotest.bool "payload constructor not double-counted" false
          (List.memq Allocsites.Cons ks));
  ]

(* --- reachability rules (Hotpath) ------------------------------------------- *)

let mini_spec ?(cold = []) entries =
  {
    Hotspec.hot =
      List.map (fun (p, id) -> { Hotspec.h_probe = p; h_id = id }) entries;
    cold =
      List.map (fun (id, why) -> { Hotspec.b_id = id; b_why = why }) cold;
  }

let analyze ~spec files =
  let cg = Callgraph.build ~files ~aux:[] in
  Hotpath.analyze ~spec ~cg ~structures:files ()

let hot_entry = [ ("hp-fix", "Lazyctrl_sw.Fast.handle") ]

let hotpath_tests =
  [
    Alcotest.test_case "H001 fires on an allocation reached from hot" `Quick
      (fun () ->
        let files =
          [
            parse_file "lib/sw/fast.ml"
              "let pair x = (x, x)\nlet handle x = pair x";
          ]
        in
        let a = analyze ~spec:(mini_spec hot_entry) files in
        let f =
          List.find
            (fun (f : Finding.t) ->
              String.equal f.Finding.rule Rules.h_hot_alloc)
            a.Hotpath.a_findings
        in
        check Alcotest.string "lands on the allocating file"
          "lib/sw/fast.ml" f.Finding.file;
        check Alcotest.bool "witness chain from the entry" true
          (has_substring f.Finding.message "Fast.handle -> Fast.pair");
        check Alcotest.bool "probe tally counts the site" true
          (List.exists
             (fun (p : Hotpath.probe_status) ->
               String.equal p.Hotpath.p_probe "hp-fix"
               && p.Hotpath.p_alloc_sites = 1)
             a.Hotpath.a_probes));
    Alcotest.test_case "the allocation-free fix is clean" `Quick (fun () ->
        let files =
          [
            parse_file "lib/sw/fast.ml"
              "let pair x = x + x\nlet handle x = pair x";
          ]
        in
        let a = analyze ~spec:(mini_spec hot_entry) files in
        check (Alcotest.list Alcotest.string) "no findings" []
          (rules_of a.Hotpath.a_findings));
    Alcotest.test_case "a declared cold boundary absorbs the region" `Quick
      (fun () ->
        let files =
          [
            parse_file "lib/sw/fast.ml"
              "let slow x = (x, x)\nlet handle x = if x = 0 then slow x else x";
          ]
        in
        let spec =
          mini_spec hot_entry
            ~cold:[ ("Lazyctrl_sw.Fast.slow", "first-contact work only") ]
        in
        let a = analyze ~spec files in
        check Alcotest.bool "no H001 through the boundary" false
          (has Rules.h_hot_alloc a.Hotpath.a_findings));
    Alcotest.test_case "H002 fires on record-field dispatch, fix is direct"
      `Quick (fun () ->
        let bad =
          [
            parse_file "lib/sw/fast.ml"
              "let handle t = t.callback ()";
          ]
        in
        let a = analyze ~spec:(mini_spec hot_entry) bad in
        check Alcotest.bool "H002 reported" true
          (has Rules.h_hot_indirect a.Hotpath.a_findings);
        let fixed =
          [
            parse_file "lib/sw/fast.ml"
              "let target () = 1\nlet handle _t = target ()";
          ]
        in
        let a = analyze ~spec:(mini_spec hot_entry) fixed in
        check Alcotest.bool "direct call is clean" false
          (has Rules.h_hot_indirect a.Hotpath.a_findings));
    Alcotest.test_case "H003 fires on raise, sentinel fix is clean" `Quick
      (fun () ->
        let bad =
          [
            parse_file "lib/sw/fast.ml"
              "let handle x = if x < 0 then raise Exit else x";
          ]
        in
        let a = analyze ~spec:(mini_spec hot_entry) bad in
        check Alcotest.bool "H003 reported" true
          (has Rules.h_hot_raise a.Hotpath.a_findings);
        let fixed =
          [
            parse_file "lib/sw/fast.ml"
              "let handle x = if x < 0 then -1 else x";
          ]
        in
        let a = analyze ~spec:(mini_spec hot_entry) fixed in
        check Alcotest.bool "sentinel return is clean" false
          (has Rules.h_hot_raise a.Hotpath.a_findings));
    Alcotest.test_case "H000: unresolved entry and stale boundary" `Quick
      (fun () ->
        let files = [ parse_file "lib/sw/fast.ml" "let handle x = x" ] in
        let spec =
          mini_spec
            (("hp-fix", "Lazyctrl_sw.Fast.handle")
            :: [ ("hp-gone", "Lazyctrl_gone.Nope.run") ])
            ~cold:[ ("Lazyctrl_sw.Fast.handle2", "never reached") ]
        in
        let a = analyze ~spec files in
        let h000 =
          List.filter
            (fun (f : Finding.t) -> String.equal f.Finding.rule Rules.h_spec)
            a.Hotpath.a_findings
        in
        check Alcotest.bool "unresolved hot entry reported" true
          (List.exists
             (fun (f : Finding.t) ->
               has_substring f.Finding.message "Lazyctrl_gone.Nope.run")
             h000);
        check Alcotest.bool "unresolved boundary reported" true
          (List.exists
             (fun (f : Finding.t) ->
               has_substring f.Finding.message "Fast.handle2")
             h000));
    Alcotest.test_case "H000: boundary no hot entry reaches is stale" `Quick
      (fun () ->
        let files =
          [
            parse_file "lib/sw/fast.ml"
              "let handle x = x\nlet island x = (x, x)";
          ]
        in
        let spec =
          mini_spec hot_entry
            ~cold:[ ("Lazyctrl_sw.Fast.island", "unreachable excuse") ]
        in
        let a = analyze ~spec files in
        check Alcotest.bool "stale boundary reported" true
          (List.exists
             (fun (f : Finding.t) ->
               String.equal f.Finding.rule Rules.h_spec
               && has_substring f.Finding.message "stale")
             a.Hotpath.a_findings));
  ]

(* --- dynamic cross-validation (Hotbudget) ----------------------------------- *)

(* A statically clean probe: one hot entry, no allocation sites. *)
let clean_probe () =
  let files = [ parse_file "lib/sw/fast.ml" "let handle x = x + 1" ] in
  let a = analyze ~spec:(mini_spec hot_entry) files in
  check (Alcotest.list Alcotest.string) "fixture statically clean" []
    (rules_of a.Hotpath.a_findings);
  a.Hotpath.a_probes

let budget_of_string s =
  let entries, errs = Hotbudget.parse s in
  check (Alcotest.list Alcotest.string) "budget parses" [] errs;
  entries

let verdict_of rows probe =
  match
    List.find_opt
      (fun (r : Hotbudget.row) -> String.equal r.Hotbudget.r_probe probe)
      rows
  with
  | Some r -> Hotbudget.verdict_name r.Hotbudget.r_verdict
  | None -> Alcotest.failf "no row for %s" probe

let hotbudget_tests =
  [
    Alcotest.test_case "budget file format" `Quick (fun () ->
        let entries, errs =
          Hotbudget.parse
            "# comment\n\nhp-a 0.0 -- allocation-free\nhp-b 12.5\nhp-c \
             nonsense\nhp-d\n"
        in
        check Alcotest.int "two entries" 2 (List.length entries);
        check Alcotest.int "two malformed lines" 2 (List.length errs);
        check Alcotest.bool "epsilon is below one boxed option" true
          (Hotbudget.epsilon < 2.0));
    Alcotest.test_case "non-finite budgets rejected" `Quick (fun () ->
        (* float_of_string_opt accepts these; an infinite budget would
           silently switch H005 off for its probe. *)
        let entries, errs =
          Hotbudget.parse "hp-a inf\nhp-b infinity\nhp-c 1e400\nhp-d nan\n"
        in
        check Alcotest.int "no entries" 0 (List.length entries);
        check Alcotest.int "four malformed lines" 4 (List.length errs);
        check Alcotest.bool "the non-negative-number message" true
          (List.for_all
             (fun msg ->
               has_substring msg "not a non-negative minor-words-per-op number")
             errs));
    Alcotest.test_case
      "calibration gap: statically clean but measured allocating" `Quick
      (fun () ->
        (* THE cross-validation property: a probe the static analysis
           calls allocation-free that measures hot is a finding (H004),
           not a pass — even while within its committed budget. *)
        let probes = clean_probe () in
        let budget = budget_of_string "hp-fix 5.0 -- generous budget\n" in
        let rows, findings =
          Hotbudget.evaluate ~budget_file:"HOTPATH_budget" ~probes ~budget
            ~measured:[ ("hp-fix", 2.0) ]
        in
        check Alcotest.string "verdict" "calibration-gap"
          (verdict_of rows "hp-fix");
        check Alcotest.bool "H004 reported" true
          (has Rules.h_alloc_calibration findings);
        check Alcotest.bool "H005 not reported (within budget)" false
          (has Rules.h_alloc_budget findings));
    Alcotest.test_case "measured noise below epsilon stays clean" `Quick
      (fun () ->
        let probes = clean_probe () in
        let budget = budget_of_string "hp-fix 1.0 -- headroom\n" in
        let rows, findings =
          Hotbudget.evaluate ~budget_file:"HOTPATH_budget" ~probes ~budget
            ~measured:[ ("hp-fix", 0.01) ]
        in
        check Alcotest.string "verdict" "clean" (verdict_of rows "hp-fix");
        check (Alcotest.list Alcotest.string) "no findings" []
          (rules_of findings));
    Alcotest.test_case "a zero budget is exact: any excess is over-budget"
      `Quick (fun () ->
        (* The budget compare has no epsilon — the committed number IS
           the allowance.  0.01 over a 0.0 budget gates. *)
        let probes = clean_probe () in
        let budget = budget_of_string "hp-fix 0.0 -- allocation-free\n" in
        let rows, findings =
          Hotbudget.evaluate ~budget_file:"HOTPATH_budget" ~probes ~budget
            ~measured:[ ("hp-fix", 0.01) ]
        in
        check Alcotest.string "verdict" "over-budget"
          (verdict_of rows "hp-fix");
        check Alcotest.bool "H005 reported" true
          (has Rules.h_alloc_budget findings));
    Alcotest.test_case "budget regression is H005" `Quick (fun () ->
        let probes = clean_probe () in
        let budget = budget_of_string "hp-fix 1.0 -- small budget\n" in
        let _, findings =
          Hotbudget.evaluate ~budget_file:"HOTPATH_budget" ~probes ~budget
            ~measured:[ ("hp-fix", 3.0) ]
        in
        check Alcotest.bool "H005 reported" true
          (has Rules.h_alloc_budget findings);
        check Alcotest.bool "message names both numbers" true
          (List.exists
             (fun (f : Finding.t) ->
               has_substring f.Finding.message "3.00"
               && has_substring f.Finding.message "1.00")
             findings));
    Alcotest.test_case "unmeasured / unbudgeted / undeclared bookkeeping"
      `Quick (fun () ->
        let probes = clean_probe () in
        let rows, findings =
          Hotbudget.evaluate ~budget_file:"HOTPATH_budget" ~probes ~budget:[]
            ~measured:[]
        in
        check Alcotest.string "no budget, no measurement" "unmeasured"
          (verdict_of rows "hp-fix");
        check Alcotest.bool "missing budget reported" true
          (has Rules.h_alloc_budget findings);
        let rows, _ =
          Hotbudget.evaluate ~budget_file:"HOTPATH_budget" ~probes ~budget:[]
            ~measured:[ ("hp-fix", 0.0) ]
        in
        check Alcotest.string "measured but unbudgeted" "unbudgeted"
          (verdict_of rows "hp-fix");
        let budget = budget_of_string "hp-ghost 1.0 -- no such probe\n" in
        let _, findings =
          Hotbudget.evaluate ~budget_file:"HOTPATH_budget" ~probes ~budget
            ~measured:[ ("hp-fix", 0.0) ]
        in
        check Alcotest.bool "undeclared budget entry reported" true
          (List.exists
             (fun (f : Finding.t) ->
               has_substring f.Finding.message "hp-ghost")
             findings));
  ]

(* --- repo-wide gates --------------------------------------------------------- *)

let repo_root = ".."
let repo_allow = Filename.concat repo_root ".lazyctrl-lint-allow"
let repo_budget_file = Filename.concat repo_root "HOTPATH_budget"

let repo_available () =
  Sys.file_exists (Filename.concat repo_root "lib/analysis/hotspec.ml")
  && Sys.file_exists repo_budget_file

(* Measured numbers consistent with the committed budgets: each probe at
   its budget (statically allocating probes sit within budget; clean
   probes get 0, matching what the bench actually measures). *)
let consistent_measured () =
  let entries, errs = Hotbudget.parse (read_file repo_budget_file) in
  check (Alcotest.list Alcotest.string) "committed budget parses" [] errs;
  List.map
    (fun (e : Hotbudget.entry) -> (e.Hotbudget.e_probe, e.Hotbudget.e_words))
    entries

let repo_gate_tests =
  [
    Alcotest.test_case "the repo has zero unallowlisted H findings" `Quick
      (fun () ->
        (* The acceptance gate, mirroring the S one: every H finding
           in the shipped tree is fixed or carries a justification. *)
        if repo_available () then
          let report =
            Driver.run ~families:[ "H" ] ~root:repo_root
              ~allow_path:repo_allow ()
          in
          Alcotest.(check (list string)) "no gating H findings" []
            (rules_of report.Driver.findings));
    Alcotest.test_case "committed budgets cover exactly the spec's probes"
      `Quick (fun () ->
        if repo_available () then
          let budgeted =
            List.sort_uniq String.compare
              (List.map fst (consistent_measured ()))
          in
          Alcotest.(check (list string))
            "HOTPATH_budget == Hotspec.default probes"
            (Hotspec.probes Hotspec.default)
            budgeted);
    Alcotest.test_case "hotpath_check passes on consistent measurements"
      `Quick (fun () ->
        if repo_available () then begin
          let r =
            Driver.hotpath_check ~root:repo_root ~allow_path:repo_allow
              ~budget_path:"HOTPATH_budget"
              ~measured:(consistent_measured ()) ()
          in
          check Alcotest.bool "clean" true (Driver.hotpath_clean r);
          check Alcotest.bool "JSON report says so" true
            (has_substring (Driver.hotpath_report_json r) "\"clean\": true")
        end);
    Alcotest.test_case
      "hotpath_check fails on a statically-clean probe measuring hot" `Quick
      (fun () ->
        (* End-to-end disagreement: hp-lfib-lookup is statically clean
           and budgeted at 0; feed it a measured 2 words/op (one boxed
           option per hit — exactly what Hashtbl.find_opt used to cost)
           and the driver must gate on an H004 calibration gap. *)
        if repo_available () then begin
          let measured =
            ("hp-lfib-lookup", 2.0)
            :: List.remove_assoc "hp-lfib-lookup" (consistent_measured ())
          in
          let r =
            Driver.hotpath_check ~root:repo_root ~allow_path:repo_allow
              ~budget_path:"HOTPATH_budget" ~measured ()
          in
          check Alcotest.bool "not clean" false (Driver.hotpath_clean r);
          check Alcotest.bool "H004 among the gating findings" true
            (has Rules.h_alloc_calibration r.Driver.hp_findings)
        end);
    Alcotest.test_case "an unmeasured probe gates too" `Quick (fun () ->
        if repo_available () then begin
          let measured =
            List.remove_assoc "hp-engine-step" (consistent_measured ())
          in
          let r =
            Driver.hotpath_check ~root:repo_root ~allow_path:repo_allow
              ~budget_path:"HOTPATH_budget" ~measured ()
          in
          check Alcotest.bool "not clean" false (Driver.hotpath_clean r);
          check Alcotest.bool "H005 names the probe" true
            (List.exists
               (fun (f : Finding.t) ->
                 String.equal f.Finding.rule Rules.h_alloc_budget
                 && has_substring f.Finding.message "hp-engine-step")
               r.Driver.hp_findings)
        end);
  ]

(* --- SARIF metadata ---------------------------------------------------------- *)

let sarif_tests =
  [
    Alcotest.test_case "catalog covers every rule id uniformly" `Quick
      (fun () ->
        check Alcotest.bool "catalog complete" true (Sarif.catalog_complete ());
        check Alcotest.int "one entry per rule"
          (List.length Rules.all)
          (List.length Sarif.catalog);
        List.iter
          (fun rule ->
            match Sarif.metadata_of rule with
            | None -> Alcotest.failf "no SARIF metadata for %s" rule
            | Some m ->
                check Alcotest.bool
                  (Printf.sprintf "%s has short text" rule)
                  true
                  (String.length m.Sarif.m_short > 0);
                check Alcotest.bool
                  (Printf.sprintf "%s has help text" rule)
                  true
                  (String.length m.Sarif.m_help > 0))
          Rules.all);
    Alcotest.test_case "H family ships in the catalog and the docs" `Quick
      (fun () ->
        List.iter
          (fun rule ->
            check Alcotest.bool rule true
              (Option.is_some (Sarif.metadata_of rule)))
          [
            Rules.h_spec;
            Rules.h_hot_alloc;
            Rules.h_hot_indirect;
            Rules.h_hot_raise;
            Rules.h_alloc_calibration;
            Rules.h_alloc_budget;
          ]);
  ]

(* --- callgraph: let-module locals (the resolution fix this PR rode on) ------- *)

let letmodule_tests =
  [
    Alcotest.test_case "let module alias resolves to its target" `Quick
      (fun () ->
        let files =
          [
            parse_file "lib/util/a.ml" "let base x = x + 1";
            parse_file "lib/util/u.ml"
              "let go x =\n  let module M = A in\n  M.base x";
          ]
        in
        let cg = Callgraph.build ~files ~aux:[] in
        check Alcotest.bool "U.go -> A.base" true
          (List.exists
             (String.equal "Lazyctrl_util.A.base")
             (Callgraph.callees cg "Lazyctrl_util.U.go"));
        let notes =
          List.concat_map
            (fun (fi : Callgraph.finfo) -> fi.Callgraph.f_notes)
            (Callgraph.files cg)
        in
        check (Alcotest.list Alcotest.string) "nothing unresolved" [] notes);
    Alcotest.test_case "non-ident let module noted once per file" `Quick
      (fun () ->
        let files =
          [
            parse_file "lib/util/u.ml"
              "let go x =\n\
              \  let module M = struct let v = 1 end in\n\
              \  let module N = struct let v = 2 end in\n\
               x + M.v + N.v";
          ]
        in
        let cg = Callgraph.build ~files ~aux:[] in
        let fi =
          List.find
            (fun (fi : Callgraph.finfo) ->
              String.equal fi.Callgraph.f_file "lib/util/u.ml")
            (Callgraph.files cg)
        in
        check Alcotest.int "two distinct notes, deduplicated" 2
          (List.length fi.Callgraph.f_notes);
        check Alcotest.bool "note names the construct" true
          (List.exists
             (fun n -> has_substring n "non-ident module expression")
             fi.Callgraph.f_notes));
  ]

(* --- CLI exit-code matrix ----------------------------------------------------- *)

let lint_exe = Filename.concat (Filename.concat ".." "bin") "lazyctrl_lint.exe"

let run_lint args =
  let null = if Sys.win32 then "NUL" else "/dev/null" in
  Sys.command (Printf.sprintf "%s %s > %s 2>&1" lint_exe args null)

let write_file path content =
  let oc = open_out_bin path in
  output_string oc content;
  close_out oc

(* One representative rule id per family, for planting stale entries. *)
let family_rules =
  [
    ("D", "D002-raw-random");
    ("A", "A002-poly-hash");
    ("P", "P001-failover-table");
    ("E", "E001-indirect-random");
    ("L", "L001-layering");
    ("X", "X001-dead-export");
    ("S", "S001-module-state");
    ("H", "H001-hot-alloc");
  ]

let with_tmp_file f =
  let path = Filename.temp_file "lazyctrl_hotpath" ".allow" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let exit_code_tests =
  [
    Alcotest.test_case "every family: clean repo + stale entry exits 3"
      `Slow (fun () ->
        (* The full matrix against the real tree: for each family, the
           repo is clean under --rules F, so appending one planted stale
           entry of that family must flip --check from 0 to exit 3 (the
           "prune the allowlist" signal, distinct from exit 1). *)
        if repo_available () && Sys.file_exists lint_exe then begin
          let real_allow = read_file repo_allow in
          List.iter
            (fun (family, rule) ->
              check Alcotest.int
                (Printf.sprintf "family %s clean with the real allowlist"
                   family)
                0
                (run_lint
                   (Printf.sprintf "--root %s --rules %s --check" repo_root
                      family));
              with_tmp_file (fun allow ->
                  write_file allow
                    (real_allow
                    ^ Printf.sprintf
                        "lib/nowhere_%s.ml %s planted stale entry\n"
                        (String.lowercase_ascii family)
                        rule);
                  check Alcotest.int
                    (Printf.sprintf "family %s stale entry exits 3" family)
                    3
                    (run_lint
                       (Printf.sprintf
                          "--root %s --allow %s --rules %s --check" repo_root
                          allow family))))
            family_rules
        end);
    Alcotest.test_case "findings beat staleness in the exit code" `Quick
      (fun () ->
        (* A tree with a real D003 finding AND a stale entry: exit 1,
           not 3 — fixing code outranks pruning the allowlist. *)
        if Sys.file_exists lint_exe then begin
          let root = Filename.temp_file "lazyctrl_lint_tree" "" in
          Sys.remove root;
          Sys.mkdir root 0o755;
          Sys.mkdir (Filename.concat root "lib") 0o755;
          Sys.mkdir (Filename.concat root "lib/fixlib") 0o755;
          Fun.protect
            ~finally:(fun () ->
              ignore
                (Sys.command
                   (Printf.sprintf "rm -rf %s" (Filename.quote root))))
            (fun () ->
              write_file
                (Filename.concat root "lib/fixlib/dirty.ml")
                "let t () = Sys.time ()";
              write_file
                (Filename.concat root "lib/fixlib/dirty.mli")
                "val t : unit -> float";
              let allow = Filename.concat root ".allow" in
              write_file allow
                "lib/nowhere.ml D002-raw-random planted stale entry\n";
              check Alcotest.int "exit 1"
                1
                (run_lint
                   (Printf.sprintf "--root %s --allow %s --rules D --check"
                      root allow)))
        end);
  ]

let () =
  Alcotest.run "hotpath"
    [
      ("hotspec", hotspec_tests);
      ("allocsites", allocsites_tests);
      ("H00x-static", hotpath_tests);
      ("H00x-crossval", hotbudget_tests);
      ("repo-gates", repo_gate_tests);
      ("sarif-metadata", sarif_tests);
      ("callgraph-letmodule", letmodule_tests);
      ("exit-codes", exit_code_tests);
    ]
