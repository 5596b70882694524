(* Protocol-invariant checks (P00x).

   P001 — the wheel failure-inference table.  §III-E of the paper (Table I)
   fixes how a designated switch's keep-alive observations map to an
   inferred failure.  [Failover.infer] encodes that table as a pattern
   match; this check symbolically evaluates the match over all 2^3
   observations and verifies that (a) every observation is covered, (b)
   each maps to exactly the verdict Table I prescribes (first-match
   semantics), and (c) no written case is dead.

   P002 — message-grammar coverage.  Every constructor of the in-band
   protocol type ([Proto.t]) must be named in a pattern somewhere in each
   dispatch module (edge switch and controller).  Wildcards do not count:
   the point is that adding a message constructor forces both dispatchers
   to take an explicit stance, even if that stance is "ignore". *)

open Parsetree

(* --- P001: failure-inference table --------------------------------------- *)

(* The paper's Table I, keyed (up_lost, down_lost, ctrl_lost). *)
let base_verdict = function
  | false, false, false -> "Healthy"
  | false, false, true -> "Control_link_failure"
  | true, false, false -> "Peer_link_up_failure"
  | false, true, false -> "Peer_link_down_failure"
  | true, true, true -> "Switch_failure"
  | _ -> "Ambiguous"

(* The extended table, keyed (up_lost, down_lost, ctrl_lost,
   peer_answering, master_silent) — all 2^5 observations.  The cluster's
   second echo spoke overrides the base table exactly when it proves the
   switch alive while the master echo is lost: master also silent on the
   coordination plane means the controller instance died; otherwise only
   the control link did.  Every other observation reduces to Table I. *)
let expected_table =
  let bools = [ false; true ] in
  List.concat_map
    (fun u ->
      List.concat_map
        (fun d ->
          List.concat_map
            (fun c ->
              List.concat_map
                (fun p ->
                  List.map
                    (fun m ->
                      let verdict =
                        if p && c then
                          if m then "Controller_failure"
                          else "Control_link_failure"
                        else base_verdict (u, d, c)
                      in
                      ((u, d, c, p, m), verdict))
                    bools)
                bools)
            bools)
        bools)
    bools

let pp_obs (u, d, c, p, m) =
  Printf.sprintf
    "{up_lost=%b; down_lost=%b; ctrl_lost=%b; peer_answering=%b; \
     master_silent=%b}"
    u d c p m

let last_component lid =
  match Parse_ml.flatten_longident lid with
  | Some path when not (List.is_empty path) ->
      Some (List.nth path (List.length path - 1))
  | _ -> None

(* Does [pat] match observation (u, d, c)?  Returns None when the pattern
   uses a form this symbolic evaluator does not understand. *)
let rec pattern_matches pat ((u, d, c, pa, ms) as obs) =
  match pat.ppat_desc with
  | Ppat_any | Ppat_var _ -> Some true
  | Ppat_alias (p, _) | Ppat_constraint (p, _) -> pattern_matches p obs
  | Ppat_or (a, b) -> (
      match pattern_matches a obs with
      | Some true -> Some true
      | Some false -> pattern_matches b obs
      | None -> None)
  | Ppat_record (fields, _) ->
      let field_value name =
        if String.equal name "up_lost" then Some u
        else if String.equal name "down_lost" then Some d
        else if String.equal name "ctrl_lost" then Some c
        else if String.equal name "peer_answering" then Some pa
        else if String.equal name "master_silent" then Some ms
        else None
      in
      let rec eval = function
        | [] -> Some true
        | (lid, fpat) :: rest -> (
            match last_component lid.Location.txt with
            | None -> None
            | Some name -> (
                match field_value name with
                | None -> None (* unknown field: not an observation record *)
                | Some v -> (
                    match fpat.ppat_desc with
                    | Ppat_any | Ppat_var _ -> eval rest
                    | Ppat_construct ({ txt = Lident b; _ }, None)
                      when String.equal b "true" || String.equal b "false" ->
                        if Bool.equal (String.equal b "true") v then eval rest
                        else Some false
                    | _ -> None)))
      in
      eval fields
  | _ -> None

let verdict_of_expr e =
  match e.pexp_desc with
  | Pexp_construct (lid, None) -> last_component lid.Location.txt
  | _ -> None

(* Find [let infer = function ...] (or [let infer x = match x with ...])
   and return its cases. *)
let find_infer_cases structure =
  let found = ref None in
  let rec cases_of e =
    match e.pexp_desc with
    | Pexp_function cases -> Some cases
    | Pexp_fun (_, _, _, body) -> (
        match body.pexp_desc with
        | Pexp_match (_, cases) -> Some cases
        | _ -> cases_of body)
    | _ -> None
  in
  List.iter
    (fun item ->
      match item.pstr_desc with
      | Pstr_value (_, bindings) ->
          List.iter
            (fun vb ->
              match vb.pvb_pat.ppat_desc with
              | Ppat_var { txt; _ } when String.equal txt "infer" -> (
                  match cases_of vb.pvb_expr with
                  | Some cases -> found := Some (cases, vb.pvb_pat.ppat_loc)
                  | None -> ())
              | _ -> ())
            bindings
      | _ -> ())
    structure;
  !found

let check_failover ~file structure =
  let findings = ref [] in
  let emit ~loc ~severity msg =
    findings :=
      Finding.make ~file ~line:(Parse_ml.line_of loc)
        ~col:(Parse_ml.col_of loc) ~rule:Rules.p_failover_table ~severity msg
      :: !findings
  in
  (match find_infer_cases structure with
  | None ->
      findings :=
        Finding.make ~file ~line:1 ~rule:Rules.p_failover_table
          ~severity:Finding.Error
          "no [let infer = function ...] binding found; the wheel \
           failure-inference table (Table I) cannot be verified"
        :: !findings
  | Some (cases, infer_loc) ->
      let n_cases = List.length cases in
      let first_match = Array.make n_cases false in
      let observations = List.map fst expected_table in
      List.iter
        (fun obs ->
          let rec try_cases idx = function
            | [] ->
                emit ~loc:infer_loc ~severity:Finding.Error
                  (Printf.sprintf "observation %s is not covered by infer"
                     (pp_obs obs))
            | case :: rest -> (
                if Option.is_some case.pc_guard then
                  emit ~loc:case.pc_lhs.ppat_loc ~severity:Finding.Error
                    "guarded case in infer: the failure table cannot be \
                     verified symbolically; express the table with literal \
                     patterns"
                else
                  match pattern_matches case.pc_lhs obs with
                  | None ->
                      emit ~loc:case.pc_lhs.ppat_loc ~severity:Finding.Error
                        "unsupported pattern form in infer; use record \
                         patterns over up_lost/down_lost/ctrl_lost/\
                         peer_answering/master_silent with literal booleans"
                  | Some false -> try_cases (idx + 1) rest
                  | Some true -> (
                      first_match.(idx) <- true;
                      let expected = List.assoc obs expected_table in
                      match verdict_of_expr case.pc_rhs with
                      | None ->
                          emit ~loc:case.pc_rhs.pexp_loc
                            ~severity:Finding.Error
                            "infer case result is not a bare verdict \
                             constructor; the table mapping cannot be \
                             verified"
                      | Some got ->
                          if not (String.equal got expected) then
                            emit ~loc:case.pc_rhs.pexp_loc
                              ~severity:Finding.Error
                              (Printf.sprintf
                                 "observation %s infers %s but Table I \
                                  prescribes %s"
                                 (pp_obs obs) got expected)))
          in
          try_cases 0 cases)
        observations;
      List.iteri
        (fun idx case ->
          if not first_match.(idx) then
            emit ~loc:case.pc_lhs.ppat_loc ~severity:Finding.Error
              "dead case in infer: no observation reaches this pattern \
               (shadowed by earlier cases)")
        cases);
  List.sort Finding.compare !findings

(* --- P002: message-grammar coverage -------------------------------------- *)

let constructors_of_type ~type_name structure =
  let out = ref [] in
  List.iter
    (fun item ->
      match item.pstr_desc with
      | Pstr_type (_, decls) ->
          List.iter
            (fun decl ->
              if String.equal decl.ptype_name.txt type_name then
                match decl.ptype_kind with
                | Ptype_variant cds ->
                    List.iter
                      (fun cd -> out := cd.pcd_name.txt :: !out)
                      cds
                | _ -> ())
            decls
      | _ -> ())
    structure;
  List.rev !out

(* Every constructor named in any pattern of the structure. *)
let pattern_constructors structure =
  let seen = Hashtbl.create 64 in
  let pat (it : Ast_iterator.iterator) p =
    (match p.ppat_desc with
    | Ppat_construct (lid, _) -> (
        match last_component lid.Location.txt with
        | Some name -> Hashtbl.replace seen name ()
        | None -> ())
    | _ -> ());
    Ast_iterator.default_iterator.pat it p
  in
  let iterator = { Ast_iterator.default_iterator with pat } in
  iterator.structure iterator structure;
  seen

let check_coverage ?(type_name = "t") ~proto:(proto_file, proto_structure)
    ~handlers () =
  let ctors = constructors_of_type ~type_name proto_structure in
  if List.is_empty ctors then
    [
      Finding.make ~file:proto_file ~line:1 ~rule:Rules.p_proto_coverage
        ~severity:Finding.Error
        (Printf.sprintf "no variant type [%s] found in %s; the message \
                         grammar cannot be verified" type_name proto_file);
    ]
  else
    let findings = ref [] in
    List.iter
      (fun (handler_file, handler_structure) ->
        let handled = pattern_constructors handler_structure in
        List.iter
          (fun ctor ->
            if not (Hashtbl.mem handled ctor) then
              findings :=
                Finding.make ~file:handler_file ~line:1
                  ~rule:Rules.p_proto_coverage ~severity:Finding.Error
                  (Printf.sprintf
                     "protocol constructor %s.%s is never matched in %s; \
                      every message must be handled explicitly (wildcards \
                      do not count)"
                     type_name ctor handler_file)
                :: !findings)
          ctors)
      handlers;
    List.sort Finding.compare !findings
