(* Paper-scale end-to-end benchmark of the LazyCtrl simulator.

   Usage:
     main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
     main.exe agree DIR_A DIR_B
     main.exe list

   --trace 0 (the default) prints the end-to-end metrics; --trace 1
   prints the per-layer metrics.  Standard output ends
   with a header line and a result line, each one JSON object; the exit
   code is 1 when the run's correctness checks fail.  agree reads the
   bounds from BENCHMARK.json in the current directory.  See
   benchmark/README.md. *)

module B = Lazyctrl_benchmark

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n\
    \       main.exe agree DIR_A DIR_B\n\
    \       main.exe list";
  exit 2

let measure args =
  let workload = ref None and seed = ref 42 and seconds = ref 25. and traced = ref false in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest ->
        workload := Some w;
        parse rest
    | "--seed" :: n :: rest ->
        seed := int_of_string n;
        parse rest
    | "--seconds" :: s :: rest ->
        seconds := float_of_string s;
        parse rest
    | "--trace" :: ("0" | "1" as b) :: rest ->
        traced := String.equal b "1";
        parse rest
    | a :: _ ->
        Printf.eprintf "unknown argument %S\n" a;
        usage ()
  in
  (try parse args with Failure _ -> usage ());
  if not (Float.is_finite !seconds && !seconds >= 0.) then usage ();
  let w =
    match Option.bind !workload B.Workload.find with
    | Some w -> w
    | None ->
        Printf.eprintf "--workload must be one of: %s\n"
          (String.concat ", " (List.map (fun w -> w.B.Workload.name) B.Workload.all));
        exit 2
  in
  let r =
    if !traced then B.Bench.trace w ~seed:!seed ~seconds:!seconds
    else B.Bench.run w ~seed:!seed ~seconds:!seconds
  in
  List.iter (Printf.eprintf "check failed: %s\n") r.B.Bench.problems;
  print_endline (B.Bench.one_line (B.Bench.header_json r));
  print_endline (B.Bench.one_line (B.Bench.result_json r));
  exit (if List.is_empty r.B.Bench.problems then 0 else 1)

let agree dir_a dir_b =
  let spec = "BENCHMARK.json" in
  let code =
    try
      match B.Agree.bounds_of_spec (In_channel.with_open_text spec In_channel.input_all) with
      | Error e ->
          Printf.eprintf "agree: %s: %s\n" spec e;
          2
      | Ok bounds -> if B.Agree.compare_dirs ~bounds dir_a dir_b then 0 else 1
    with Sys_error e ->
      Printf.eprintf "agree: %s\n" e;
      2
  in
  exit code

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "list" :: _ -> List.iter (fun w -> print_endline w.B.Workload.name) B.Workload.all
  | [ "agree"; a; b ] -> agree a b
  | args -> measure args
