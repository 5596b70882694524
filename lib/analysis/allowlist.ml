(* The allowlist file (.lazyctrl-lint-allow) suppresses individual
   findings that are deliberate.  One entry per line:

       <repo-relative-path> <RULE-ID> <justification...>

   '#' starts a comment; blank lines are ignored.  The justification is
   mandatory — an entry without one is itself a (gating) finding, so the
   allowlist cannot silently rot into a blanket mute.  Entries that match
   nothing are reported as warnings so stale suppressions get cleaned up. *)

type entry = {
  path : string;
  rule : string;
  justification : string;
  line : int;
  mutable used : bool;
}

type t = { file : string; entries : entry list }

(* Returns the parsed allowlist plus findings for malformed entries. *)
let parse_string ~file content =
  let entries = ref [] in
  let findings = ref [] in
  let bad line msg =
    findings :=
      Finding.make ~file ~line ~rule:"allowlist" ~severity:Finding.Error msg
      :: !findings
  in
  List.iteri
    (fun idx raw ->
      let lineno = idx + 1 in
      let line = String.trim raw in
      if String.equal line "" then ()
      else if Char.equal line.[0] '#' then ()
      else
        match Rules.split_ws line with
        | path :: rule :: (_ :: _ as just) ->
            if not (Rules.is_known rule) then
              bad lineno
                (Printf.sprintf "unknown rule id '%s' in allowlist entry" rule)
            else
              entries :=
                {
                  path;
                  rule;
                  justification = String.concat " " just;
                  line = lineno;
                  used = false;
                }
                :: !entries
        | [ _; _ ] ->
            bad lineno
              "allowlist entry has no justification; every suppression must \
               say why (format: <path> <RULE-ID> <why>)"
        | _ ->
            bad lineno
              "malformed allowlist entry (format: <path> <RULE-ID> <why>)"
    )
    (String.split_on_char '\n' content);
  ({ file; entries = List.rev !entries }, List.rev !findings)

let load path =
  if Sys.file_exists path then begin
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let content = really_input_string ic n in
    close_in ic;
    parse_string ~file:path content
  end
  else ({ file = path; entries = [] }, [])

(* Does the allowlist permit (file, rule)?  Marks matching entries used. *)
let permits t ~file ~rule =
  let matched = ref false in
  List.iter
    (fun e ->
      if String.equal e.rule rule && Rules.has_suffix ~suffix:e.path file
      then begin
        e.used <- true;
        matched := true
      end)
    t.entries;
  !matched

(* Stale entries: non-gating, but surfaced so they get pruned.  [relevant]
   restricts staleness to entries whose rule actually ran this invocation
   (under a [--rules] family filter an unmatched entry is not stale — its
   rule never had the chance to fire). *)
let unused ?(relevant = fun _ -> true) t =
  List.filter_map
    (fun e ->
      if e.used || not (relevant e.rule) then None
      else
        Some
          (Finding.make ~file:t.file ~line:e.line ~rule:"allowlist"
             ~severity:Finding.Warning
             (Printf.sprintf
                "stale allowlist entry: no %s finding in %s (remove it)"
                e.rule e.path)))
    t.entries
