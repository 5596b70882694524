(* Interprocedural effect inference (E00x).

   Every top-level definition gets an effect signature over the lattice
   {Rng, Clock, Unordered} (sets ordered by inclusion).
   Signatures are seeded at known primitives — the same classifications
   the per-file D-rules use, so a sort-sanctioned [Hashtbl.fold] is not a
   seed — and propagated transitively over the Callgraph, so a
   [lib/util] helper that reads [Sys.time] taints every caller that can
   reach it, however many hops away.

   Sanctuary modules are *barriers*: [lib/util/prng.ml] legitimately
   draws raw randomness (that is the seeded PRNG), [lib/sim/time.ml] may
   touch host clocks, and [lib/util/det.ml]'s key-snapshot fold erases
   traversal order with an explicit sort.  Their effects do not
   propagate to callers — going through them is precisely the endorsed
   route — while a direct seed anywhere else leaks to every caller.

   Each effect gates through its own rule (E001/E002/E003, mirroring
   D002/D003/D001). *)

type eff = Rng | Clock | Unordered

let eff_name = function
  | Rng -> "rng"
  | Clock -> "clock"
  | Unordered -> "unordered-iteration"

let all_effects = [ Rng; Clock; Unordered ]

module ESet = struct
  type t = int

  let empty = 0
  let bit = function Rng -> 1 | Clock -> 2 | Unordered -> 4
  let add e s = s lor bit e
  let mem e s = s land bit e <> 0
  let diff a b = a land lnot b
  let to_list s = List.filter (fun e -> mem e s) all_effects
end

(* Where an effect entered a definition's signature: directly at a
   primitive, or inherited from a callee. *)
type provenance = Seed of string | Inherited of string (* callee def id *)

type sig_ = { effects : ESet.t; direct : ESet.t }

type table = {
  cg : Callgraph.t;
  sigs : (string, sig_) Hashtbl.t;  (* def id -> signature *)
  prov : (string, provenance) Hashtbl.t;  (* def id ^ "/" ^ eff -> provenance *)
}

(* --- barriers -------------------------------------------------------------- *)

let barrier_mask file =
  let m = ref ESet.empty in
  if Rules.random_sanctuary file then m := ESet.add Rng !m;
  if Rules.clock_sanctuary file then m := ESet.add Clock !m;
  if Rules.order_sanctuary file then m := ESet.add Unordered !m;
  !m

(* --- seeds ----------------------------------------------------------------- *)

(* Seeds come from the per-file AST findings (pre-allowlist), so
   the effect pass agrees exactly with the D-rules on what counts as a
   hazard — including the sort-sink sanctioning. *)
let eff_of_rule rule =
  if String.equal rule Rules.d_raw_random then Some Rng
  else if String.equal rule Rules.d_wall_clock then Some Clock
  else if String.equal rule Rules.d_hashtbl_order then Some Unordered
  else None

let seed_label = function
  | Rng -> "a raw Random draw"
  | Clock -> "a host clock read"
  | Unordered -> "an unordered Hashtbl traversal"

(* --- inference ------------------------------------------------------------- *)

let prov_key id e = id ^ "/" ^ eff_name e

let infer cg ~ast_findings =
  let sigs = Hashtbl.create 512 in
  let prov = Hashtbl.create 512 in
  List.iter
    (fun (file, findings) ->
      List.iter
        (fun (f : Finding.t) ->
          match eff_of_rule f.rule with
          | None -> ()
          | Some e -> (
              match
                Callgraph.def_spanning cg ~file ~line:f.line ~col:f.col
              with
              | None -> ()
              | Some d ->
                  let id = d.Callgraph.d_id in
                  let s =
                    match Hashtbl.find_opt sigs id with
                    | Some s -> s
                    | None -> { effects = ESet.empty; direct = ESet.empty }
                  in
                  if not (ESet.mem e s.direct) then begin
                    Hashtbl.replace prov (prov_key id e) (Seed (seed_label e));
                    Hashtbl.replace sigs id
                      {
                        effects = ESet.add e s.effects;
                        direct = ESet.add e s.direct;
                      }
                  end))
        findings)
    ast_findings;
  let t = { cg; sigs; prov } in
  (* propagate to a fixpoint, smallest callee id wins the witness *)
  let exported id =
    match Hashtbl.find_opt sigs id with
    | None -> ESet.empty
    | Some s -> (
        match Callgraph.find_def cg id with
        | None -> s.effects
        | Some d -> ESet.diff s.effects (barrier_mask d.Callgraph.d_file))
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun id ->
        let s =
          match Hashtbl.find_opt sigs id with
          | Some s -> s
          | None -> { effects = ESet.empty; direct = ESet.empty }
        in
        let incoming = ref s.effects in
        List.iter
          (fun callee ->
            let ex = exported callee in
            List.iter
              (fun e ->
                if ESet.mem e ex && not (ESet.mem e !incoming) then begin
                  incoming := ESet.add e !incoming;
                  Hashtbl.replace prov (prov_key id e) (Inherited callee)
                end)
              all_effects)
          (Callgraph.callees cg id);
        if not (Int.equal !incoming s.effects) then begin
          Hashtbl.replace sigs id { s with effects = !incoming };
          changed := true
        end)
      (Callgraph.def_ids cg)
  done;
  t

(* --- queries & findings ---------------------------------------------------- *)

let signature_of t id =
  match Hashtbl.find_opt t.sigs id with
  | Some s -> List.map eff_name (ESet.to_list s.effects)
  | None -> []

let rec chain t id e ~depth =
  if depth > 8 then [ "..." ]
  else
    match Hashtbl.find_opt t.prov (prov_key id e) with
    | Some (Seed label) -> [ label ]
    | Some (Inherited callee) -> callee :: chain t callee e ~depth:(depth + 1)
    | None -> []

let finding_rule = function
  | Rng -> (Rules.e_indirect_random, Finding.Error)
  | Clock -> (Rules.e_indirect_clock, Finding.Error)
  | Unordered -> (Rules.e_indirect_order, Finding.Warning)

let advice = function
  | Rng -> "draw from a Lazyctrl_util.Prng stream instead"
  | Clock -> "simulated code must stay on Engine.now / Lazyctrl_sim.Time"
  | Unordered ->
      "sort before observing, or go through Lazyctrl_util.Det at the source"

let findings t =
  let out = ref [] in
  List.iter
    (fun fi ->
      if not fi.Callgraph.f_aux then
        List.iter
          (fun (d : Callgraph.def) ->
            match Hashtbl.find_opt t.sigs d.Callgraph.d_id with
            | None -> ()
            | Some s ->
                let inherited = ESet.diff s.effects s.direct in
                let blocked = barrier_mask d.Callgraph.d_file in
                List.iter
                  (fun e ->
                    if ESet.mem e inherited && not (ESet.mem e blocked) then
                      let rule, severity = finding_rule e in
                      let id = d.Callgraph.d_id in
                      let path =
                        String.concat " -> " (id :: chain t id e ~depth:0)
                      in
                      out :=
                        Finding.make ~file:d.Callgraph.d_file
                          ~line:d.Callgraph.d_line ~col:d.Callgraph.d_col ~rule
                          ~severity
                          (Printf.sprintf
                             "indirectly reaches %s through the call graph: \
                              %s; %s"
                             (seed_label e) path (advice e))
                        :: !out)
                  all_effects)
          fi.Callgraph.f_defs)
    (Callgraph.files t.cg);
  List.sort Finding.compare !out
