(* The measured half of the H00x family.  Each probe declared in the
   hot-path spec is run by bench/main.exe's hotpath targets under
   lib/perf's allocation counters, and the measured minor-words-per-op is
   judged against a committed per-probe budget file (HOTPATH_budget).

   H005 — budget defects: a measured probe over its committed budget (an
   allocation regression, whether or not the Parsetree analysis can see
   the allocation), a declared probe with no budget or no measurement, a
   budget entry for a probe the spec no longer declares.

   This module is pure bookkeeping over (probe, words/op) pairs; reading
   the measured numbers out of a perf report is the CLI's job, so
   lib/analysis keeps zero dependencies. *)

type entry = { e_probe : string; e_words : float; e_line : int }

(* Measured minor words/op below this is counter noise, not an
   allocation: a single boxed option costs 2 words/op, well above it.
   It only names the verdict; the budget compare itself is exact. *)
let epsilon = 0.05

type verdict =
  | Clean  (** statically allocation-free and measured quiet *)
  | Within_budget  (** measured allocating, within budget *)
  | Over_budget  (** measured above the committed budget (H005) *)
  | Unmeasured  (** declared but not measured (H005) *)
  | Unbudgeted  (** declared and measured but no committed budget (H005) *)

let verdict_name = function
  | Clean -> "clean"
  | Within_budget -> "within-budget"
  | Over_budget -> "over-budget"
  | Unmeasured -> "unmeasured"
  | Unbudgeted -> "unbudgeted"

type row = {
  r_probe : string;
  r_static_sites : int;
  r_budget : float option;
  r_measured : float option;
  r_verdict : verdict;
}

(* --- budget file ----------------------------------------------------------- *)

(* Line format: [<probe> <minor-words-per-op> [-- note]], '#' comments.
   Returns the entries plus parse errors as messages with line numbers. *)
let parse content =
  let entries = ref [] and errs = ref [] in
  List.iteri
    (fun idx raw ->
      let lineno = idx + 1 in
      let line =
        let n = String.length raw in
        let rec find i =
          if i + 4 > n then raw
          else if String.equal (String.sub raw i 4) " -- " then
            String.sub raw 0 i
          else find (i + 1)
        in
        String.trim (find 0)
      in
      if String.equal line "" then ()
      else if Char.equal line.[0] '#' then ()
      else
        match Rules.split_ws line with
        | [ probe; words ] -> (
            match float_of_string_opt words with
            | Some w when Float.is_finite w && w >= 0. ->
                entries := { e_probe = probe; e_words = w; e_line = lineno } :: !entries
            | _ ->
                errs :=
                  Printf.sprintf
                    "line %d: '%s' is not a non-negative minor-words-per-op \
                     number"
                    lineno words
                  :: !errs)
        | _ ->
            errs :=
              Printf.sprintf
                "line %d: expected '<probe> <minor-words-per-op> [-- note]'"
                lineno
              :: !errs)
    (String.split_on_char '\n' content);
  (List.rev !entries, List.rev !errs)

(* --- the budget check -------------------------------------------------------- *)

let evaluate ~budget_file ~(probes : Hotpath.probe_status list) ~budget
    ~measured =
  let findings = ref [] in
  let emit ~file ~line ~rule ~severity msg =
    findings := Finding.make ~file ~line ~rule ~severity msg :: !findings
  in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun e ->
      if Hashtbl.mem seen e.e_probe then
        emit ~file:budget_file ~line:e.e_line ~rule:Rules.h_alloc_budget
          ~severity:Finding.Error
          (Printf.sprintf "duplicate budget entry for probe '%s'" e.e_probe)
      else Hashtbl.add seen e.e_probe e)
    budget;
  let rows =
    List.map
      (fun (p : Hotpath.probe_status) ->
        let b = Hashtbl.find_opt seen p.Hotpath.p_probe in
        let m = List.assoc_opt p.Hotpath.p_probe measured in
        (match (b, m) with
        | None, _ ->
            emit ~file:budget_file ~line:1 ~rule:Rules.h_alloc_budget
              ~severity:Finding.Error
              (Printf.sprintf
                 "probe '%s' has no committed minor-words-per-op budget in \
                  %s"
                 p.Hotpath.p_probe budget_file)
        | Some e, None ->
            emit ~file:budget_file ~line:e.e_line ~rule:Rules.h_alloc_budget
              ~severity:Finding.Error
              (Printf.sprintf
                 "probe '%s' was not measured; run the bench hotpath \
                  targets (make lint-hotpath) so it is judged against \
                  its budget"
                 p.Hotpath.p_probe)
        | Some e, Some words when words > e.e_words ->
            emit ~file:budget_file ~line:e.e_line ~rule:Rules.h_alloc_budget
              ~severity:Finding.Error
              (Printf.sprintf
                 "probe '%s' measured %.2f minor words/op against a budget \
                  of %.2f — a hot-path allocation regression (or refresh \
                  the budget deliberately, saying what grew)"
                 p.Hotpath.p_probe words e.e_words)
        | Some _, Some _ -> ());
        let r_verdict =
          match (b, m) with
          | _, None -> Unmeasured
          | Some e, Some words when words > e.e_words -> Over_budget
          | None, Some _ -> Unbudgeted
          | Some _, Some words ->
              if p.Hotpath.p_alloc_sites = 0 && words <= epsilon then Clean
              else Within_budget
        in
        {
          r_probe = p.Hotpath.p_probe;
          r_static_sites = p.Hotpath.p_alloc_sites;
          r_budget = Option.map (fun e -> e.e_words) b;
          r_measured = m;
          r_verdict;
        })
      probes
  in
  let declared p =
    List.exists
      (fun (ps : Hotpath.probe_status) -> String.equal ps.Hotpath.p_probe p)
      probes
  in
  List.iter
    (fun e ->
      if not (declared e.e_probe) then
        emit ~file:budget_file ~line:e.e_line ~rule:Rules.h_alloc_budget
          ~severity:Finding.Warning
          (Printf.sprintf
             "budget entry for probe '%s' which the hot-path spec does not \
              declare; remove it or declare the probe"
             e.e_probe))
    budget;
  (rows, List.sort Finding.compare !findings)
