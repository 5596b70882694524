(* lazyctrl-lint rule tests: every rule family gets at least one fixture
   that must trigger it and one that must stay clean. *)

open Lazyctrl_analysis

let lint ?(file = "lib/fixture/fixture.ml") src =
  match Driver.lint_source ~file ~src with
  | Ok findings -> findings
  | Error msg -> Alcotest.failf "fixture did not parse: %s" msg

let rules_of findings = List.map (fun (f : Finding.t) -> f.rule) findings

let has rule findings = List.exists (String.equal rule) (rules_of findings)

let check_triggers name rule src =
  Alcotest.test_case name `Quick (fun () ->
      let fs = lint src in
      Alcotest.(check bool)
        (Printf.sprintf "%s triggers on fixture" rule)
        true (has rule fs))

let check_clean name src =
  Alcotest.test_case name `Quick (fun () ->
      let fs = lint src in
      Alcotest.(check (list string)) "no findings" [] (rules_of fs))

(* --- determinism rules ----------------------------------------------------- *)

let d001_tests =
  [
    check_triggers "Hashtbl.iter flagged" Rules.d_hashtbl_order
      "let f tbl = Hashtbl.iter (fun k _ -> print_int k) tbl";
    check_triggers "Tbl.fold on keyed table flagged" Rules.d_hashtbl_order
      "let f t = Ids.Switch_id.Tbl.fold (fun k _ acc -> k :: acc) t []";
    check_triggers "Hashtbl.to_seq_values flagged" Rules.d_hashtbl_order
      "let f tbl = Array.of_seq (Hashtbl.to_seq_values tbl)";
    check_clean "fold piped into List.sort is sanctioned"
      "let f tbl =\n\
      \  Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort Int.compare";
    check_clean "sort applied directly to fold is sanctioned"
      "let f tbl =\n\
      \  List.sort Int.compare (Hashtbl.fold (fun k _ acc -> k :: acc) tbl [])";
    check_clean "Det.iter_sorted is the endorsed spelling"
      "let f tbl = Lazyctrl_util.Det.iter_sorted ~cmp:Int.compare ignore tbl";
    check_triggers "fold without a sort sink still flagged"
      Rules.d_hashtbl_order
      "let f tbl =\n\
      \  let l = Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] in\n\
      \  List.sort Int.compare l";
  ]

let d002_tests =
  [
    check_triggers "Random.int flagged" Rules.d_raw_random
      "let x () = Random.int 10";
    check_triggers "Random.self_init flagged" Rules.d_raw_random
      "let () = Random.self_init ()";
    Alcotest.test_case "prng.ml sanctuary" `Quick (fun () ->
        let fs = lint ~file:"lib/util/prng.ml" "let x () = Random.int 10" in
        Alcotest.(check bool)
          "Random allowed inside the PRNG module" false
          (has Rules.d_raw_random fs));
    check_clean "seeded Prng stream is clean"
      "let x rng = Lazyctrl_util.Prng.int rng 10";
  ]

let d003_tests =
  [
    check_triggers "Unix.gettimeofday flagged" Rules.d_wall_clock
      "let t () = Unix.gettimeofday ()";
    check_triggers "Sys.time flagged" Rules.d_wall_clock
      "let t () = Sys.time ()";
    Alcotest.test_case "time.ml sanctuary" `Quick (fun () ->
        let fs = lint ~file:"lib/sim/time.ml" "let t () = Sys.time ()" in
        Alcotest.(check bool)
          "host clocks allowed inside Time" false (has Rules.d_wall_clock fs));
    check_clean "virtual time is clean" "let t engine = Engine.now engine";
  ]

let d004_tests =
  [
    check_triggers "float-literal equality flagged" Rules.d_float_eq
      "let b x = x = 0.0";
    check_triggers "negative float literal flagged" Rules.d_float_eq
      "let b x = x <> -1.5";
    check_clean "Float.equal is clean" "let b x = Float.equal x 0.0";
    check_clean "record literal with float field is not an equality"
      "let s = { stray_fraction = 0.05 }";
    check_clean "tolerance comparison is clean"
      "let b x = Float.abs (x -. 1.0) < 1e-9";
  ]

(* --- abstraction rules ----------------------------------------------------- *)

let a001_tests =
  [
    check_triggers "bare compare flagged" Rules.a_poly_compare
      "let c a b = compare a b";
    check_triggers "List.sort compare flagged" Rules.a_poly_compare
      "let f l = List.sort compare l";
    check_clean "Int.compare is clean" "let c a b = Int.compare a b";
    check_clean "Mac.compare is clean" "let c a b = Mac.compare a b";
  ]

let a002_tests =
  [
    check_triggers "Hashtbl.hash flagged" Rules.a_poly_hash
      "let h k = Hashtbl.hash k";
    check_clean "keyed hash is clean" "let h k = Mac.hash k";
  ]

let a003_tests =
  [
    check_triggers "= None flagged" Rules.a_poly_eq "let b x = x = None";
    check_triggers "<> [] flagged" Rules.a_poly_eq "let b l = l <> []";
    check_triggers "keyed field equality flagged" Rules.a_poly_eq
      "let b (h : Host.t) m = h.mac = m";
    check_clean "Option.is_none is clean" "let b x = Option.is_none x";
    check_clean "List.is_empty is clean" "let b l = List.is_empty l";
    check_clean "keyed equal is clean"
      "let b (h : Host.t) m = Mac.equal h.mac m";
  ]

(* --- protocol rules -------------------------------------------------------- *)

let parse_structure src =
  match Parse_ml.parse ~file:"fixture.ml" ~src with
  | Ok s -> s
  | Error msg -> Alcotest.failf "fixture did not parse: %s" msg

let good_infer =
  "type verdict = Healthy | Control_link_failure | Peer_link_up_failure\n\
   | Peer_link_down_failure | Switch_failure | Ambiguous | Controller_failure\n\
   let infer = function\n\
   | { peer_answering = true; ctrl_lost = true; master_silent = true } -> \
   Controller_failure\n\
   | { peer_answering = true; ctrl_lost = true; master_silent = false } -> \
   Control_link_failure\n\
   | { up_lost = false; down_lost = false; ctrl_lost = false } -> Healthy\n\
   | { up_lost = false; down_lost = false; ctrl_lost = true } -> \
   Control_link_failure\n\
   | { up_lost = true; down_lost = false; ctrl_lost = false } -> \
   Peer_link_up_failure\n\
   | { up_lost = false; down_lost = true; ctrl_lost = false } -> \
   Peer_link_down_failure\n\
   | { up_lost = true; down_lost = true; ctrl_lost = true } -> Switch_failure\n\
   | _ -> Ambiguous\n"

let swapped_infer =
  "let infer = function\n\
   | { up_lost = false; down_lost = false; ctrl_lost = false } -> Healthy\n\
   | { up_lost = false; down_lost = false; ctrl_lost = true } -> \
   Switch_failure\n\
   | _ -> Ambiguous\n"

let incomplete_infer =
  "let infer = function\n\
   | { up_lost = false; down_lost = false; ctrl_lost = false } -> Healthy\n\
   | { up_lost = true; down_lost = true; ctrl_lost = true } -> Switch_failure\n"

let dead_case_infer =
  "let infer = function\n\
   | _ -> Ambiguous\n\
   | { up_lost = false; down_lost = false; ctrl_lost = false } -> Healthy\n"

let p001_tests =
  [
    Alcotest.test_case "faithful Table I passes" `Quick (fun () ->
        let fs =
          Proto_rules.check_failover ~file:"f.ml" (parse_structure good_infer)
        in
        Alcotest.(check (list string)) "no findings" [] (rules_of fs));
    Alcotest.test_case "swapped verdict caught" `Quick (fun () ->
        let fs =
          Proto_rules.check_failover ~file:"f.ml"
            (parse_structure swapped_infer)
        in
        Alcotest.(check bool) "mismatch reported" true
          (has Rules.p_failover_table fs));
    Alcotest.test_case "uncovered observation caught" `Quick (fun () ->
        let fs =
          Proto_rules.check_failover ~file:"f.ml"
            (parse_structure incomplete_infer)
        in
        Alcotest.(check bool) "coverage gap reported" true
          (has Rules.p_failover_table fs));
    Alcotest.test_case "dead case caught" `Quick (fun () ->
        let fs =
          Proto_rules.check_failover ~file:"f.ml"
            (parse_structure dead_case_infer)
        in
        Alcotest.(check bool) "dead case reported" true
          (has Rules.p_failover_table fs));
    Alcotest.test_case "missing infer reported" `Quick (fun () ->
        let fs =
          Proto_rules.check_failover ~file:"f.ml" (parse_structure "let x = 1")
        in
        Alcotest.(check bool) "absence reported" true
          (has Rules.p_failover_table fs));
  ]

let proto_fixture =
  "type t = Group_config of int | Keepalive | Ring_alarm of int"

let full_handler =
  "let handle = function\n\
   | Group_config c -> c\n\
   | Keepalive -> 0\n\
   | Ring_alarm n -> n\n"

let gappy_handler =
  "let handle = function Group_config c -> c | _ -> 0"

let p002_tests =
  [
    Alcotest.test_case "full dispatcher passes" `Quick (fun () ->
        let fs =
          Proto_rules.check_coverage
            ~proto:("p.ml", parse_structure proto_fixture)
            ~handlers:[ ("h.ml", parse_structure full_handler) ]
            ()
        in
        Alcotest.(check (list string)) "no findings" [] (rules_of fs));
    Alcotest.test_case "wildcard does not count as handling" `Quick (fun () ->
        let fs =
          Proto_rules.check_coverage
            ~proto:("p.ml", parse_structure proto_fixture)
            ~handlers:[ ("h.ml", parse_structure gappy_handler) ]
            ()
        in
        let missing =
          List.filter (fun (f : Finding.t) ->
              String.equal f.rule Rules.p_proto_coverage)
            fs
        in
        Alcotest.(check int) "two constructors unhandled" 2
          (List.length missing));
    Alcotest.test_case "the real protocol stays covered" `Quick (fun () ->
        (* Guard against the shipped dispatchers regressing: this is the
           exact whole-program check the @lint alias runs. *)
        let root = "../" in
        if Sys.file_exists (Filename.concat root "lib/switch/proto.ml") then
          let fs = Driver.protocol_findings ~root in
          Alcotest.(check (list string)) "no findings" [] (rules_of fs));
  ]

(* --- allowlist ------------------------------------------------------------- *)

(* cwd is test/ under `dune runtest` (the file is staged one level up)
   but the project root under a bare `dune exec`. *)
let read_repo_file name =
  let path =
    let staged = Filename.concat ".." name in
    if Sys.file_exists staged then staged else name
  in
  In_channel.with_open_bin path In_channel.input_all

(* Byte substitutions, deletions and insertions of the committed
   allowlist and hot-path budget, biased towards the characters their
   line formats give meaning to; both parsers must report, never raise. *)
let mutated_config_files_never_raise =
  let edit =
    QCheck2.Gen.(
      triple (int_bound 2) nat
        (oneof
           [ char; oneofl [ ' '; '\t'; '\n'; '#'; '-'; '.'; 'e'; '0'; 'i' ] ]))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300
       ~name:"qcheck: mutated allowlist and budget files never raise"
       QCheck2.Gen.(pair bool (list_size (int_range 1 8) edit))
       (fun (allowlist, edits) ->
         let apply s (kind, pos, c) =
           let n = String.length s in
           let i = if n = 0 then 0 else pos mod n in
           match kind with
           | 0 when n > 0 -> String.mapi (fun j x -> if j = i then c else x) s
           | 1 when n > 0 -> String.sub s 0 i ^ String.sub s (i + 1) (n - i - 1)
           | _ -> String.sub s 0 i ^ String.make 1 c ^ String.sub s i (n - i)
         in
         let original =
           read_repo_file
             (if allowlist then ".lazyctrl-lint-allow" else "HOTPATH_budget")
         in
         let doc = List.fold_left apply original edits in
         if allowlist then ignore (Allowlist.parse_string ~file:"allow" doc)
         else ignore (Hotbudget.parse doc);
         true))

let allowlist_tests =
  [
    Alcotest.test_case "entry suppresses a matching finding" `Quick (fun () ->
        let allow, errs =
          Allowlist.parse_string ~file:"allow"
            "lib/util/det.ml D001-hashtbl-order sanctioned primitive\n"
        in
        Alcotest.(check (list string)) "well-formed" [] (rules_of errs);
        Alcotest.(check bool) "permits matching file+rule" true
          (Allowlist.permits allow ~file:"lib/util/det.ml"
             ~rule:Rules.d_hashtbl_order);
        Alcotest.(check bool) "other rule not permitted" false
          (Allowlist.permits allow ~file:"lib/util/det.ml"
             ~rule:Rules.d_raw_random);
        Alcotest.(check (list string)) "no stale entries" []
          (rules_of (Allowlist.unused allow)));
    Alcotest.test_case "justification is mandatory" `Quick (fun () ->
        let _, errs =
          Allowlist.parse_string ~file:"allow"
            "lib/util/det.ml D001-hashtbl-order\n"
        in
        Alcotest.(check int) "malformed entry reported" 1 (List.length errs));
    Alcotest.test_case "unknown rule id rejected" `Quick (fun () ->
        let _, errs =
          Allowlist.parse_string ~file:"allow" "lib/a.ml D999-nope because\n"
        in
        Alcotest.(check int) "unknown rule reported" 1 (List.length errs));
    Alcotest.test_case "stale entries surfaced" `Quick (fun () ->
        let allow, _ =
          Allowlist.parse_string ~file:"allow"
            "lib/never.ml D001-hashtbl-order obsolete\n"
        in
        Alcotest.(check int) "one stale entry" 1
          (List.length (Allowlist.unused allow)));
    Alcotest.test_case "comments and blanks ignored" `Quick (fun () ->
        let allow, errs =
          Allowlist.parse_string ~file:"allow" "# comment\n\n  \n"
        in
        Alcotest.(check (list string)) "no errors" [] (rules_of errs);
        Alcotest.(check int) "no entries" 0
          (List.length (Allowlist.unused allow)));
    mutated_config_files_never_raise;
  ]

(* --- call graph ------------------------------------------------------------ *)

let parse_file file src = (file, parse_structure src)

let parse_intf file src =
  match Parse_ml.parse_intf ~file ~src with
  | Ok s -> (file, s)
  | Error msg -> Alcotest.failf "fixture interface did not parse: %s" msg

(* A miniature repo exercising every resolution form the simulator uses:
   sibling modules, [open Lazyctrl_x], file-local aliases, and absolute
   wrapper paths — plus the two deliberate violations the ISSUE calls
   for: a lib/switch -> controller-internal call and an indirect
   [Sys.time] reach. *)
let fixture_files () =
  [
    parse_file "lib/util/helper.ml"
      "let stamp () = Sys.time ()\nlet double x = 2 * x";
    parse_file "lib/util/a.ml" "let base x = x + 1\nlet unused_thing = 3";
    parse_file "lib/util/b.ml" "let via x = A.base x";
    parse_file "lib/graph/c.ml"
      "module H = Lazyctrl_util.A\nlet go () = H.base 9";
    parse_file "lib/switch/edge_switch.ml" "let lfib t = t";
    parse_file "lib/switch/proto.ml" "let size_estimate _ = 0";
    parse_file "lib/switch/edge_helper.ml"
      "let tick () = Lazyctrl_util.Helper.stamp ()\n\
       let clean x = Lazyctrl_util.Helper.double x";
    parse_file "lib/switch/bad.ml"
      "let poke c = Lazyctrl_controller.Controller.stats c";
    parse_file "lib/controller/bad2.ml"
      "open Lazyctrl_switch\n\
       let peek t = Edge_switch.lfib t\n\
       let ok m = Proto.size_estimate m";
    parse_file "bin/tool.ml"
      "open Lazyctrl_util\nlet run () = B.via 3\nlet drive () = run ()";
  ]

let fixture_cg () = Callgraph.build ~files:(fixture_files ()) ~aux:[]

let callees_of cg id =
  match Callgraph.find_def cg id with
  | None -> Alcotest.failf "no def %s" id
  | Some _ -> Callgraph.callees cg id

let has_callee cg id callee =
  List.exists (String.equal callee) (callees_of cg id)

let callgraph_tests =
  [
    Alcotest.test_case "sibling module reference resolves" `Quick (fun () ->
        let cg = fixture_cg () in
        Alcotest.(check bool) "B.via -> A.base" true
          (has_callee cg "Lazyctrl_util.B.via" "Lazyctrl_util.A.base"));
    Alcotest.test_case "open-scoped reference resolves" `Quick (fun () ->
        let cg = fixture_cg () in
        Alcotest.(check bool) "tool.run -> B.via" true
          (has_callee cg "Tool.run" "Lazyctrl_util.B.via"));
    Alcotest.test_case "file-local alias resolves" `Quick (fun () ->
        let cg = fixture_cg () in
        Alcotest.(check bool) "C.go -> A.base via alias" true
          (has_callee cg "Lazyctrl_graph.C.go" "Lazyctrl_util.A.base"));
    Alcotest.test_case "absolute wrapper path resolves" `Quick (fun () ->
        let cg = fixture_cg () in
        Alcotest.(check bool) "edge_helper.tick -> Helper.stamp" true
          (has_callee cg "Lazyctrl_switch.Edge_helper.tick"
             "Lazyctrl_util.Helper.stamp"));
    Alcotest.test_case "same-file reference resolves" `Quick (fun () ->
        let cg = fixture_cg () in
        Alcotest.(check bool) "tool.drive -> tool.run" true
          (has_callee cg "Tool.drive" "Tool.run"));
    Alcotest.test_case "defs carry their file" `Quick (fun () ->
        let cg = fixture_cg () in
        let defs = Callgraph.defs_of_file cg "lib/util/a.ml" in
        Alcotest.(check bool) "a.ml defines base" true
          (List.exists
             (fun (d : Callgraph.def) ->
               String.equal d.Callgraph.d_id "Lazyctrl_util.A.base")
             defs));
  ]

(* --- E00x: transitive effects ---------------------------------------------- *)

let fixture_effects () =
  let files = fixture_files () in
  let cg = Callgraph.build ~files ~aux:[] in
  let ast_findings =
    List.map (fun (file, s) -> (file, Ast_rules.scan ~file s)) files
  in
  Effects.infer cg ~ast_findings

let effect_findings_on file fs =
  List.filter (fun (f : Finding.t) -> String.equal f.file file) fs

let effects_tests =
  [
    Alcotest.test_case "indirect Sys.time reach caught one hop away" `Quick
      (fun () ->
        let fs = Effects.findings (fixture_effects ()) in
        let on = effect_findings_on "lib/switch/edge_helper.ml" fs in
        Alcotest.(check bool) "E002 on the switch helper" true
          (has Rules.e_indirect_clock on));
    Alcotest.test_case "direct-clean twin stays clean" `Quick (fun () ->
        let t = fixture_effects () in
        Alcotest.(check (list string)) "Helper.double has no effects" []
          (Effects.signature_of t "Lazyctrl_util.Helper.double");
        (* the [clean] def calls only the pure twin, so no finding lands
           on its line *)
        let fs = Effects.findings t in
        Alcotest.(check bool) "no finding at the clean def" false
          (List.exists
             (fun (f : Finding.t) ->
               String.equal f.file "lib/switch/edge_helper.ml" && f.line = 2)
             fs));
    Alcotest.test_case "effect signature of the root is direct" `Quick
      (fun () ->
        let t = fixture_effects () in
        Alcotest.(check bool) "Helper.stamp carries clock" true
          (List.exists (String.equal "clock")
             (Effects.signature_of t "Lazyctrl_util.Helper.stamp"));
        (* the root's use is direct, the D-rule's business — the E rule
           must not double-report it *)
        let fs = Effects.findings t in
        Alcotest.(check (list string)) "no E finding on helper.ml" []
          (rules_of (effect_findings_on "lib/util/helper.ml" fs)));
    Alcotest.test_case "barriers absorb their sanctioned effect" `Quick
      (fun () ->
        let files =
          [
            parse_file "lib/util/prng.ml" "let draw () = Random.int 10";
            parse_file "lib/util/user.ml" "let f () = Prng.draw ()";
          ]
        in
        let cg = Callgraph.build ~files ~aux:[] in
        let ast_findings =
          List.map (fun (file, s) -> (file, Ast_rules.scan ~file s)) files
        in
        let t = Effects.infer cg ~ast_findings in
        Alcotest.(check (list string))
          "no E001 through the seeded PRNG" []
          (rules_of (Effects.findings t)));
  ]

(* --- L00x: layering -------------------------------------------------------- *)

let layering_tests =
  [
    Alcotest.test_case "switch -> controller internals caught" `Quick
      (fun () ->
        let fs = Layering.check (fixture_cg ()) in
        Alcotest.(check bool) "L002 on lib/switch/bad.ml" true
          (List.exists
             (fun (f : Finding.t) ->
               String.equal f.file "lib/switch/bad.ml"
               && String.equal f.rule Rules.l_lazy_separation)
             fs));
    Alcotest.test_case "controller -> switch internals caught, Proto exempt"
      `Quick (fun () ->
        let fs = Layering.check (fixture_cg ()) in
        let on_bad2 =
          List.filter
            (fun (f : Finding.t) ->
              String.equal f.file "lib/controller/bad2.ml")
            fs
        in
        Alcotest.(check bool) "L002 for Edge_switch reference" true
          (has Rules.l_lazy_separation on_bad2);
        Alcotest.(check bool) "no finding for the Proto reference" false
          (List.exists (fun (f : Finding.t) -> f.line = 3) on_bad2));
    Alcotest.test_case "undeclared lib dependency caught" `Quick (fun () ->
        let files =
          [ parse_file "lib/util/leak.ml" "let z = Lazyctrl_sim.Time.zero" ]
        in
        let cg = Callgraph.build ~files ~aux:[] in
        Alcotest.(check bool) "L001 on util -> sim" true
          (has Rules.l_layering (Layering.check cg)));
    Alcotest.test_case "declared dependencies stay silent" `Quick (fun () ->
        (* the fixture repo's only violations are the two deliberate ones *)
        let fs = Layering.check (fixture_cg ()) in
        Alcotest.(check int) "exactly the two planted violations" 2
          (List.length fs));
    Alcotest.test_case "spec sanity: analysis depends only on util" `Quick
      (fun () ->
        Alcotest.(check (list string)) "only util's JSON declared" [ "util" ]
          (Option.value ~default:[ "missing" ]
             (List.assoc_opt "analysis" Layering.allowed_deps));
        Alcotest.(check bool) "Proto is the controller surface" true
          (List.exists (String.equal "Proto")
             Layering.controller_switch_surface));
  ]

(* --- X00x: interface hygiene ----------------------------------------------- *)

let deadcode_tests =
  [
    Alcotest.test_case "dead export caught, live export spared" `Quick
      (fun () ->
        let cg = fixture_cg () in
        let intfs =
          [
            parse_intf "lib/util/a.mli"
              "val base : int -> int\nval unused_thing : int";
          ]
        in
        let fs = Deadcode.dead_exports cg ~intfs in
        Alcotest.(check int) "one dead export" 1 (List.length fs);
        Alcotest.(check bool) "it is unused_thing" true
          (List.exists
             (fun (f : Finding.t) ->
               String.equal f.rule Rules.x_dead_export && f.line = 2)
             fs));
    Alcotest.test_case "test-suite references keep exports alive" `Quick
      (fun () ->
        let files =
          [ parse_file "lib/util/a.ml" "let base x = x + 1" ]
        in
        let aux =
          [ parse_file "test/test_a.ml"
              "let () = ignore (Lazyctrl_util.A.base 1)" ]
        in
        let cg = Callgraph.build ~files ~aux in
        let intfs = [ parse_intf "lib/util/a.mli" "val base : int -> int" ] in
        Alcotest.(check (list string)) "no dead exports" []
          (rules_of (Deadcode.dead_exports cg ~intfs)));
    Alcotest.test_case "missing .mli flagged for lib only" `Quick (fun () ->
        let fs =
          Deadcode.missing_mli
            ~ml_files:[ "lib/util/a.ml"; "lib/util/b.ml"; "bin/tool.ml" ]
            ~mli_files:[ "lib/util/a.mli" ]
        in
        Alcotest.(check int) "one missing interface" 1 (List.length fs);
        Alcotest.(check bool) "it is lib/util/b.ml" true
          (List.exists
             (fun (f : Finding.t) ->
               String.equal f.file "lib/util/b.ml"
               && String.equal f.rule Rules.x_missing_mli)
             fs));
  ]

(* --- driver ---------------------------------------------------------------- *)

let write_file path content =
  let oc = open_out_bin path in
  output_string oc content;
  close_out oc

let with_tmp_tree f =
  let root = Filename.temp_file "lazyctrl_lint" "" in
  Sys.remove root;
  Sys.mkdir root 0o755;
  Sys.mkdir (Filename.concat root "lib") 0o755;
  Sys.mkdir (Filename.concat root "lib/fixlib") 0o755;
  Fun.protect
    ~finally:(fun () ->
      ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote root))))
    (fun () -> f root)

let driver_tests =
  [
    Alcotest.test_case "parse failure reported once" `Quick (fun () ->
        with_tmp_tree (fun root ->
            write_file
              (Filename.concat root "lib/fixlib/broken.ml")
              "let f = ( in Hashtbl.iter g tbl";
            write_file
              (Filename.concat root "lib/fixlib/broken.mli")
              "val f : unit";
            let allow = Filename.concat root ".allow" in
            let report = Driver.run ~root ~allow_path:allow () in
            let failures =
              List.filter
                (fun (file, _) -> String.equal file "lib/fixlib/broken.ml")
                report.Driver.parse_failures
            in
            Alcotest.(check int)
              "one parse-failure record despite per-file, protocol and \
               whole-program passes all consuming the cache"
              1 (List.length failures);
            Alcotest.(check bool) "an unparsable file is never clean" false
              (Driver.clean report);
            (* The D family alone yields no finding here (the file has
               no Parsetree to scan): the parse failure itself gates. *)
            let d_only = Driver.run ~families:[ "D" ] ~root ~allow_path:allow () in
            Alcotest.(check int) "no D finding" 0
              (List.length d_only.Driver.findings);
            Alcotest.(check bool) "still not clean" false (Driver.clean d_only)));
    Alcotest.test_case "stale allowlist entry reported once" `Quick (fun () ->
        with_tmp_tree (fun root ->
            write_file
              (Filename.concat root "lib/fixlib/ok.ml")
              "let f x = x + 1";
            write_file
              (Filename.concat root "lib/fixlib/ok.mli")
              "val f : int -> int";
            let allow = Filename.concat root ".allow" in
            write_file allow
              "lib/nowhere.ml D002-raw-random obsolete suppression\n";
            let report = Driver.run ~root ~allow_path:allow () in
            Alcotest.(check int) "exactly one stale warning" 1
              (List.length report.Driver.stale)));
    Alcotest.test_case "family filter scopes rules and staleness" `Quick
      (fun () ->
        with_tmp_tree (fun root ->
            write_file
              (Filename.concat root "lib/fixlib/dirty.ml")
              "let t () = Sys.time ()";
            (* no .mli: an X002 waiting to fire when X is selected *)
            let allow = Filename.concat root ".allow" in
            write_file allow
              "lib/nowhere.ml X001-dead-export not relevant under --rules D\n";
            let d_only =
              Driver.run ~families:[ "D" ] ~root ~allow_path:allow ()
            in
            Alcotest.(check bool) "D003 reported" true
              (has Rules.d_wall_clock d_only.Driver.findings);
            Alcotest.(check bool) "X002 not reported under D" false
              (has Rules.x_missing_mli d_only.Driver.findings);
            Alcotest.(check int)
              "X allowlist entry not stale when X never ran" 0
              (List.length d_only.Driver.stale);
            let x_only =
              Driver.run ~families:[ "X" ] ~root ~allow_path:allow ()
            in
            Alcotest.(check bool) "X002 reported under X" true
              (has Rules.x_missing_mli x_only.Driver.findings);
            Alcotest.(check bool) "D003 not reported under X" false
              (has Rules.d_wall_clock x_only.Driver.findings);
            Alcotest.(check int) "X entry stale once X runs" 1
              (List.length x_only.Driver.stale)));
  ]

(* --- JSON reports ------------------------------------------------------------ *)

(* Every lint report is parsed back through the shared JSON module, so a
   malformed rendering fails here rather than in a CI consumer. *)
module Json = Lazyctrl_util.Json

let parse_report what text =
  match Json.of_string text with
  | Ok j -> j
  | Error e -> Alcotest.failf "%s is not valid JSON: %s" what e

let path j keys = List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some j) keys

let list_at j keys =
  match Option.bind (path j keys) Json.to_list with
  | Some l -> l
  | None -> Alcotest.failf "no list at %s" (String.concat "." keys)

let json_report_tests =
  [
    Alcotest.test_case "report_to_json and SARIF parse back" `Quick (fun () ->
        with_tmp_tree (fun root ->
            write_file
              (Filename.concat root "lib/fixlib/dirty.ml")
              "let t () = Sys.time ()\nlet u () = Random.int 3";
            write_file
              (Filename.concat root "lib/fixlib/dirty.mli")
              "val t : unit -> float\nval u : unit -> int";
            let allow = Filename.concat root ".allow" in
            write_file allow
              "lib/fixlib/dirty.ml D002-raw-random \"quoted\" \\ reason\n";
            let report = Driver.run ~root ~allow_path:allow () in
            let j = parse_report "report_to_json" (Driver.report_to_json report) in
            Alcotest.(check int) "findings count"
              (List.length report.Driver.findings)
              (List.length (list_at j [ "findings" ]));
            Alcotest.(check int) "suppressed count"
              (List.length report.Driver.suppressed)
              (List.length (list_at j [ "suppressed" ]));
            Alcotest.(check (option bool)) "clean matches Driver.clean"
              (Some (Driver.clean report))
              (Option.bind (Json.member "clean" j) Json.to_bool);
            Alcotest.(check (option int)) "files_scanned"
              (Some report.Driver.files_scanned)
              (Option.bind (Json.member "files_scanned" j) Json.to_int);
            let sarif =
              parse_report "SARIF" (Sarif.of_findings report.Driver.findings)
            in
            Alcotest.(check (option string)) "SARIF version" (Some "2.1.0")
              (Option.bind (Json.member "version" sarif) Json.to_str);
            match list_at sarif [ "runs" ] with
            | [ run ] ->
                Alcotest.(check int) "one result per finding"
                  (List.length report.Driver.findings)
                  (List.length (list_at run [ "results" ]));
                Alcotest.(check int) "one rule per catalog entry"
                  (List.length Rules.all)
                  (List.length (list_at run [ "tool"; "driver"; "rules" ]))
            | _ -> Alcotest.fail "SARIF must carry exactly one run"));
    Alcotest.test_case "SARIF escapes messages losslessly" `Quick (fun () ->
        let message = "a \"quoted\" \\ path\n\ttab \001 caf\xc3\xa9" in
        let f =
          Finding.make ~file:"lib/x.ml" ~line:0 ~col:3 ~rule:Rules.d_raw_random
            ~severity:Finding.Warning message
        in
        let sarif = parse_report "SARIF" (Sarif.of_findings [ f ]) in
        match list_at sarif [ "runs" ] with
        | [ run ] -> (
            match list_at run [ "results" ] with
            | [ r ] ->
                Alcotest.(check (option string)) "message" (Some message)
                  (Option.bind (path r [ "message"; "text" ]) Json.to_str);
                Alcotest.(check (option string)) "level" (Some "warning")
                  (Option.bind (Json.member "level" r) Json.to_str);
                (match list_at r [ "locations" ] with
                | [ loc ] ->
                    let region = [ "physicalLocation"; "region" ] in
                    Alcotest.(check (option int)) "line clamped to 1" (Some 1)
                      (Option.bind (path loc (region @ [ "startLine" ])) Json.to_int);
                    Alcotest.(check (option int)) "1-based column" (Some 4)
                      (Option.bind (path loc (region @ [ "startColumn" ])) Json.to_int)
                | _ -> Alcotest.fail "one location")
            | _ -> Alcotest.fail "one result")
        | _ -> Alcotest.fail "one run");
    Alcotest.test_case "hotpath report parses back" `Quick (fun () ->
        with_tmp_tree (fun root ->
            let r =
              Driver.hotpath_check ~root
                ~allow_path:(Filename.concat root ".allow")
                ~budget_path:"HOTPATH_budget" ~measured:[] ()
            in
            let j = parse_report "hotpath report" (Driver.hotpath_report_json r) in
            Alcotest.(check (option bool)) "clean matches Driver.hotpath_clean"
              (Some (Driver.hotpath_clean r))
              (Option.bind (Json.member "clean" j) Json.to_bool);
            Alcotest.(check int) "findings count"
              (List.length r.Driver.hp_findings)
              (List.length (list_at j [ "findings" ]));
            Alcotest.(check int) "one row per probe"
              (List.length r.Driver.hp_rows)
              (List.length (list_at j [ "probes" ]))));
  ]

(* --- S001: module-level state ------------------------------------------- *)

(* A fixture tree over the scope boundary: the first five files plant
   process-global state in code every logical shard runs (a switch
   function and a sim step each bump a module-level counter), the rest
   hold only per-call state or sit in harness layers. *)
let module_state_tree =
  [
    ( "lib/switch/learn.ml",
      "let learned = ref 0\nlet learn mac = incr learned; mac" );
    ("lib/sim/stepper.ml", "let steps = ref 0\nlet step e = incr steps; e");
    ( "lib/core/registry.ml",
      "type t = { tbl : (int, int) Hashtbl.t }\n\
       let global = { tbl = Hashtbl.create 7 }" );
    ( "lib/controller/nested.ml",
      "module Cache = struct\n  let entries = Hashtbl.create 16\nend" );
    ("lib/util/seeded.ml", "let rng = Prng.create 1");
    ( "lib/switch/local.ml",
      "let count xs = let n = ref 0 in List.iter (fun _ -> incr n) xs; !n" );
    ( "lib/experiments/memo.ml",
      "let memo = Hashtbl.create 64\nlet get k = Hashtbl.find_opt memo k" );
    ("lib/perf/timer.ml", "let samples = ref []\nlet buf = Bytes.create 8");
  ]

(* (file, line) of every S001 finding on the fixture tree. *)
let module_state_sites () =
  with_tmp_tree (fun root ->
      List.iter
        (fun (rel, src) ->
          let dir = Filename.concat root (Filename.dirname rel) in
          if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
          write_file (Filename.concat root rel) src)
        module_state_tree;
      let report =
        Driver.run ~families:[ "S" ] ~root
          ~allow_path:(Filename.concat root ".allow") ()
      in
      List.map
        (fun (f : Finding.t) ->
          Alcotest.(check string) "rule" Rules.s_module_state f.rule;
          (f.file, f.line))
        report.Driver.findings)

let reports name file line =
  Alcotest.test_case name `Quick (fun () ->
      Alcotest.(check bool)
        (Printf.sprintf "S001 at %s:%d" file line)
        true
        (List.mem (file, line) (module_state_sites ())))

let silent name file =
  Alcotest.test_case name `Quick (fun () ->
      Alcotest.(check (list int))
        (Printf.sprintf "no S001 in %s" file)
        []
        (List.filter_map
           (fun (f, line) -> if String.equal f file then Some line else None)
           (module_state_sites ())))

let module_state_tests =
  [
    reports "switch function bumps a module-level ref"
      "lib/switch/learn.ml" 1;
    reports "sim step bumps a module-level ref" "lib/sim/stepper.ml" 1;
    reports "Hashtbl.create inside a record" "lib/core/registry.ml" 2;
    reports "binding inside a nested module" "lib/controller/nested.ml" 2;
    reports "Prng.create at module level" "lib/util/seeded.ml" 1;
    silent "function-local ref stays quiet" "lib/switch/local.ml";
    silent "lib/experiments memo table is out of scope"
      "lib/experiments/memo.ml";
    silent "lib/perf is out of scope" "lib/perf/timer.ml";
    Alcotest.test_case "inventory catches every declaration form" `Quick
      (fun () ->
        let _, s =
          parse_file "lib/net/inv.ml"
            "type t = { mutable count : int }\n\
             let cell = ref 0\n\
             let tbl = Hashtbl.create 7\n\
             let buf = Bytes.create 16\n\
             let grid = Array.make 4 0\n\
             let lits = [| 1; 2 |]\n\
             let pair = (1, ref 0)\n\
             let slot = Some (Hashtbl.create 1)\n\
             let next = let n = ref 0 in fun () -> incr n; !n\n\
             let touch t = t.count <- 1; incr cell\n\
             let fresh () = ref 0\n\
             let limit = 4"
        in
        Alcotest.(check (list int)) "one finding per mutable binding"
          [ 2; 3; 4; 5; 6; 7; 8; 9 ]
          (List.map
             (fun (f : Finding.t) -> f.line)
             (Mutinv.check ~file:"lib/net/inv.ml" s)));
    Alcotest.test_case "the real repo has zero unallowlisted S findings"
      `Quick (fun () ->
        (* The acceptance gate: every S finding in the shipped tree is
           either fixed or carries a written justification. *)
        let root = "../" in
        if Sys.file_exists (Filename.concat root "lib/analysis/mutinv.ml")
        then
          let report =
            Driver.run ~families:[ "S" ] ~root
              ~allow_path:(Filename.concat root ".lazyctrl-lint-allow")
              ()
          in
          Alcotest.(check (list string)) "no gating S findings" []
            (rules_of report.Driver.findings));
  ]

(* --- callgraph notes (unresolved constructs) --------------------------------- *)

let callgraph_notes_tests =
  [
    Alcotest.test_case "functor application resolves through its head" `Quick
      (fun () ->
        let files =
          [
            parse_file "lib/util/fct.ml"
              "module Make (X : sig val v : int end) = struct\n\
              \  let get () = X.v\nend";
            parse_file "lib/util/usef.ml"
              "module T = Fct.Make (struct let v = 3 end)\n\
               let go () = T.get ()";
          ]
        in
        let cg = Callgraph.build ~files ~aux:[] in
        Alcotest.(check bool) "usef.go -> Fct.Make.get" true
          (has_callee cg "Lazyctrl_util.Usef.go" "Lazyctrl_util.Fct.Make.get");
        let notes =
          List.concat_map
            (fun (fi : Callgraph.finfo) -> fi.Callgraph.f_notes)
            (Callgraph.files cg)
        in
        Alcotest.(check (list string)) "nothing unresolved" [] notes);
    Alcotest.test_case "first-class module noted once per file" `Quick
      (fun () ->
        let files =
          [
            parse_file "lib/util/pack.ml"
              "module type S = sig val x : int end\n\
               let m = (module struct let x = 1 end : S)\n\
               module M = (val m : S)\n\
               module N = (val m : S)";
          ]
        in
        let cg = Callgraph.build ~files ~aux:[] in
        let fi =
          List.find
            (fun (fi : Callgraph.finfo) ->
              String.equal fi.Callgraph.f_file "lib/util/pack.ml")
            (Callgraph.files cg)
        in
        Alcotest.(check int) "two distinct notes, deduplicated" 2
          (List.length fi.Callgraph.f_notes));
  ]

(* --- ARCHITECTURE.md layering diagram ---------------------------------------- *)

(* The Mermaid diagram in ARCHITECTURE.md documents the layering spec
   that L001 enforces; parse its edges back out and fail when document
   and code drift apart.  A bare identifier line inside the fence is a
   dependency-free library; [a --> b] means "a may reference b". *)
let architecture_doc_tests =
  [
    Alcotest.test_case "mermaid diagram matches allowed_deps" `Quick (fun () ->
        let doc = read_repo_file "ARCHITECTURE.md" in
        let in_fence = ref false in
        let nodes = ref [] and edges = ref [] in
        List.iter
          (fun raw ->
            let line = String.trim raw in
            if String.equal line "```mermaid" then in_fence := true
            else if String.equal line "```" then in_fence := false
            else if !in_fence then
              match String.split_on_char ' ' line with
              | [ a; "-->"; b ] -> edges := (a, b) :: !edges
              | [ n ] when String.length n > 0 -> nodes := n :: !nodes
              | _ -> ())
          (String.split_on_char '\n' doc);
        Alcotest.(check bool) "found a mermaid diagram" true
          (not (List.is_empty !edges));
        let libs =
          List.sort_uniq String.compare (!nodes @ List.map fst !edges)
        in
        let doc_spec =
          List.map
            (fun lib ->
              ( lib,
                List.sort String.compare
                  (List.filter_map
                     (fun (a, b) ->
                       if String.equal a lib then Some b else None)
                     !edges) ))
            libs
        in
        let code_spec =
          List.map
            (fun (lib, deps) -> (lib, List.sort String.compare deps))
            Layering.allowed_deps
          |> List.sort (fun (a, _) (b, _) -> String.compare a b)
        in
        Alcotest.(check (list (pair string (list string))))
          "ARCHITECTURE.md diagram == lib/analysis/layering.ml spec"
          code_spec doc_spec);
  ]

let () =
  Alcotest.run "lazyctrl-lint"
    [
      ("D001-hashtbl-order", d001_tests);
      ("D002-raw-random", d002_tests);
      ("D003-wall-clock", d003_tests);
      ("D004-float-eq", d004_tests);
      ("A001-poly-compare", a001_tests);
      ("A002-poly-hash", a002_tests);
      ("A003-poly-eq", a003_tests);
      ("P001-failover-table", p001_tests);
      ("P002-proto-coverage", p002_tests);
      ("allowlist", allowlist_tests);
      ("callgraph", callgraph_tests);
      ("E00x-effects", effects_tests);
      ("L00x-layering", layering_tests);
      ("X00x-deadcode", deadcode_tests);
      ("S001-module-state", module_state_tests);
      ("callgraph-notes", callgraph_notes_tests);
      ("architecture-doc", architecture_doc_tests);
      ("driver", driver_tests);
      ("json-reports", json_report_tests);
    ]
