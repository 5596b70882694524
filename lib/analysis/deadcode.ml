(* Interface hygiene (X00x).

   X001 — dead exports: a [val] declared in a library's .mli that no
   other scanned file (including the test suites and the benchmark
   project, scanned reference-only) ever names.  The export is the dead
   part — the value may well be used inside its own module; the fix is
   to drop it from the interface (or allowlist it with the reason the
   API keeps it).
   Resolution is conservative: any opaque use of a module (functor
   argument, [include], first-class pack, re-exported alias) marks every
   export of that module as live, so only names with no plausible
   reference anywhere are reported.

   X002 — missing interfaces: a [lib/] .ml with no adjacent .mli.  Every
   library module carries one so the public surface is explicit — and so
   X001 has something to check. *)

open Parsetree

(* Exported value paths of a signature, recursing into concrete
   submodule signatures ([module M : sig ... end]).  Opaque module types
   ([module M : SOME_SIG]) cannot be enumerated syntactically and are
   skipped — conservative in the no-false-positive direction. *)
let rec exported_vals prefix items =
  List.concat_map
    (fun item ->
      match item.psig_desc with
      | Psig_value vd ->
          [ (prefix @ [ vd.pval_name.txt ], vd.pval_loc) ]
      | Psig_module md -> (
          match (md.pmd_name.txt, md.pmd_type.pmty_desc) with
          | Some name, Pmty_signature sub ->
              exported_vals (prefix @ [ name ]) sub
          | _ -> [])
      | _ -> [])
    items

let mli_of_ml ml = Filename.remove_extension ml ^ ".mli"

let dead_exports cg ~intfs =
  let findings = ref [] in
  List.iter
    (fun (mli_file, signature) ->
      let ml_file = Filename.remove_extension mli_file ^ ".ml" in
      (* only judge interfaces whose implementation we indexed *)
      let fi =
        List.find_opt
          (fun (fi : Callgraph.finfo) ->
            String.equal fi.Callgraph.f_file ml_file)
          (Callgraph.files cg)
      in
      match fi with
      | None -> ()
      | Some fi -> (
          match fi.Callgraph.f_lib with
          | None -> ()
          | Some d ->
              let root =
                [ Callgraph.wrapper_of_lib d; fi.Callgraph.f_mod ]
              in
              List.iter
                (fun (path, loc) ->
                  let qual = root @ path in
                  let users =
                    Callgraph.referencing_files cg ~qual ~owner_file:ml_file
                  in
                  let users =
                    List.filter
                      (fun u -> not (String.equal u mli_file))
                      users
                  in
                  if List.is_empty users then
                    findings :=
                      Finding.make ~file:mli_file ~line:(Parse_ml.line_of loc)
                        ~col:(Parse_ml.col_of loc) ~rule:Rules.x_dead_export
                        ~severity:Finding.Warning
                        (Printf.sprintf
                           "exported value %s is never referenced outside \
                            its module (tests, benches, examples and bin \
                            included); drop it from the interface or \
                            allowlist the reason the API keeps it"
                           (String.concat "." (fi.Callgraph.f_mod :: path)))
                      :: !findings)
                (exported_vals [] signature)))
    (List.sort (fun (a, _) (b, _) -> String.compare a b) intfs);
  List.sort Finding.compare !findings

let missing_mli ~ml_files ~mli_files =
  List.filter_map
    (fun ml ->
      if not (Callgraph.has_prefix ~prefix:"lib/" ml) then None
      else
        let want = mli_of_ml ml in
        if List.exists (String.equal want) mli_files then None
        else
          Some
            (Finding.make ~file:ml ~line:1 ~rule:Rules.x_missing_mli
               ~severity:Finding.Warning
               (Printf.sprintf
                  "library module without an interface: add %s so the \
                   public surface is explicit (and X001 can police it)"
                  want)))
    (List.sort String.compare ml_files)
