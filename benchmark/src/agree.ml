module Json = Lazyctrl_perf.Json

let quartiles xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "Agree.quartiles: no values"
  else if n = 1 then (a.(0), a.(0), a.(0))
  else
    let m = n + 1 in
    let q i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 2, q 3)

type bound = { metric : string; bound : float }

let bounds_of_spec text =
  match Json.of_string text with
  | Error e -> Error e
  | Ok doc -> (
      match Option.bind (Json.member "end_to_end" doc) Json.to_list with
      | None -> Error "no end_to_end list"
      | Some entries ->
          List.fold_right
            (fun e acc ->
              match
                ( acc,
                  Option.bind (Json.member "name" e) Json.to_str,
                  Option.bind (Json.member "bound" e) Json.to_float )
              with
              | Ok l, Some metric, Some bound -> Ok ({ metric; bound } :: l)
              | (Error _ as err), _, _ -> err
              | Ok _, _, _ -> Error "end_to_end entry without name or bound")
            entries (Ok []))

(* (mode, workload) -> metric -> values, from every file of a directory
   whose run was correct, and one line per file that cannot be used: an
   end-to-end ([run]) result must carry every bounded metric. *)
let load ~bounds dir =
  let runs = Hashtbl.create 16 and problems = ref [] in
  let problem fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  let files = Sys.readdir dir in
  Array.sort String.compare files;
  Array.iter
    (fun file ->
      let lines =
        In_channel.with_open_text (Filename.concat dir file) In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter_map (fun l ->
               match Json.of_string l with Ok (Json.Obj _ as j) -> Some j | _ -> None)
      in
      let header = List.find_opt (fun j -> Option.is_some (Json.member "workload" j)) lines in
      let last = List.nth_opt (List.rev lines) 0 in
      match (header, last, Option.bind last (Json.member "metrics")) with
      | Some h, Some result, Some (Json.Obj metrics) -> (
          match Json.member "correct" result with
          | Some (Json.Bool true) ->
              let str k = Option.value ~default:"?" (Option.bind (Json.member k h) Json.to_str) in
              let key = (str "mode", str "workload") in
              if String.equal (fst key) "run" then
                List.iter
                  (fun bd ->
                    if not (List.mem_assoc bd.metric metrics) then
                      problem "%s/%s: no %s" dir file bd.metric)
                  bounds;
              let tbl =
                match Hashtbl.find_opt runs key with
                | Some t -> t
                | None ->
                    let t = Hashtbl.create 64 in
                    Hashtbl.replace runs key t;
                    t
              in
              List.iter
                (fun (name, v) ->
                  match Option.bind (Json.member "value" v) Json.to_float with
                  | Some x ->
                      let prev = Option.value ~default:[] (Hashtbl.find_opt tbl name) in
                      Hashtbl.replace tbl name (x :: prev)
                  | None -> ())
                metrics
          | _ -> problem "%s/%s: the run reports correct:false" dir file)
      | _ -> problem "%s/%s holds no benchmark result" dir file)
    files;
  if Hashtbl.length runs = 0 then problem "%s holds no usable benchmark result" dir;
  (runs, List.rev !problems)

let sorted_keys tbl =
  List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) tbl [])

let runs tbl = Hashtbl.fold (fun _ v acc -> max acc (List.length v)) tbl 0

let compare_dirs ~bounds dir_a dir_b =
  let a, problems_a = load ~bounds dir_a and b, problems_b = load ~bounds dir_b in
  let ok = ref true in
  let fail fmt =
    Printf.ksprintf
      (fun m ->
        ok := false;
        Printf.printf "FAIL %s\n" m)
      fmt
  in
  List.iter (fail "%s") (problems_a @ problems_b);
  List.iter
    (fun ((mode, workload) as key) ->
      match Hashtbl.find_opt b key with
      | None -> fail "%s %s: only in %s" mode workload dir_a
      | Some tb ->
          let ta = Hashtbl.find a key in
          Printf.printf "\n%s %s (%d vs %d runs)\n%-32s %40s %40s %9s %7s\n" mode workload
            (runs ta) (runs tb) "metric"
            "A median [q1, q3] spread" "B median [q1, q3] spread" "diff" "bound";
          List.iter
            (fun name ->
              match Hashtbl.find_opt tb name with
              | None -> ()
              | Some vb ->
                  let va = Hashtbl.find ta name in
                  let cell v =
                    let q1, med, q3 = quartiles v in
                    Printf.sprintf "%.6g [%.6g, %.6g] %4.1f%%" med q1 q3
                      (if Float.equal med 0. then 0. else 100. *. (q3 -. q1) /. Float.abs med)
                  in
                  let _, ma, _ = quartiles va and _, mb, _ = quartiles vb in
                  let diff =
                    if Float.equal ma mb then 0. else Float.abs (mb -. ma) /. Float.abs ma
                  in
                  let verdict =
                    match List.find_opt (fun bd -> String.equal bd.metric name) bounds with
                    | None -> ""
                    | Some bd when diff <= bd.bound -> Printf.sprintf "%.3g ok" bd.bound
                    | Some bd ->
                        ok := false;
                        Printf.sprintf "%.3g FAIL" bd.bound
                  in
                  Printf.printf "%-32s %40s %40s %8.2f%% %s\n" name (cell va) (cell vb)
                    (100. *. diff) verdict)
            (sorted_keys ta))
    (sorted_keys a);
  List.iter
    (fun ((mode, workload) as key) ->
      if not (Hashtbl.mem a key) then fail "%s %s: only in %s" mode workload dir_b)
    (sorted_keys b);
  !ok
