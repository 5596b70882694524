(* Schema-versioned bench report (BENCH_lazyctrl.json).

   Version history:
     1 — { schema_version, suite, benchmarks: [ { name, ops_per_sec,
          ns_per_op, alloc_bytes_per_op, events_fired } ] }
     2 — adds minor_words_per_op per benchmark, so the regression gate
          (Compare) and the H00x hot-path budgets (HOTPATH_budget) can
          gate allocation alongside throughput
     3 — adds top-level host_cores (the machine the run happened on)
          and per-benchmark domains / optional scaling_efficiency, so
          the multicore probes (packet-replay-dN) can carry their
          parallel-speedup measurement and Compare can gate it only on
          machines with enough cores for the gate to mean anything

   Readers reject any other version outright: a silent best-effort
   parse of a future schema would turn the regression gate into noise. *)

module Json = Lazyctrl_util.Json

let schema_version = 3

let suite = "lazyctrl-bench"

type doc = { host_cores : int; results : Measure.result list }

let detected_host_cores () = Domain.recommended_domain_count ()

let to_json ?host_cores (results : Measure.result list) =
  let host_cores =
    match host_cores with Some c -> c | None -> detected_host_cores ()
  in
  Json.Obj
    [
      ("schema_version", Json.int schema_version);
      ("suite", Json.Str suite);
      ("host_cores", Json.int host_cores);
      ( "benchmarks",
        Json.List
          (List.map
             (fun (r : Measure.result) ->
               Json.Obj
                 ([
                    ("name", Json.Str r.name);
                    ("ops_per_sec", Json.Num r.ops_per_sec);
                    ("ns_per_op", Json.Num r.ns_per_op);
                    ("alloc_bytes_per_op", Json.Num r.alloc_bytes_per_op);
                    ("minor_words_per_op", Json.Num r.minor_words_per_op);
                    ("events_fired", Json.int r.events_fired);
                    ("domains", Json.int r.domains);
                  ]
                 @
                 match r.scaling_efficiency with
                 | Some e -> [ ("scaling_efficiency", Json.Num e) ]
                 | None -> []))
             results) );
    ]

let to_string ?host_cores results = Json.to_string (to_json ?host_cores results)

let ( let* ) = Result.bind

let field_float name obj =
  match Option.bind (Json.member name obj) Json.to_float with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "missing or non-numeric field %S" name)

let field_int name obj =
  match Option.bind (Json.member name obj) Json.to_int with
  | Some n -> Ok n
  | None -> Error (Printf.sprintf "missing or non-integer field %S" name)

let decode_benchmark obj =
  match Option.bind (Json.member "name" obj) Json.to_str with
  | None -> Error "benchmark entry without a \"name\" string"
  | Some name ->
      let* ops_per_sec = field_float "ops_per_sec" obj in
      let* ns_per_op = field_float "ns_per_op" obj in
      let* alloc_bytes_per_op = field_float "alloc_bytes_per_op" obj in
      let* minor_words_per_op = field_float "minor_words_per_op" obj in
      let* events_fired = field_int "events_fired" obj in
      let* domains = field_int "domains" obj in
      let scaling_efficiency =
        Option.bind (Json.member "scaling_efficiency" obj) Json.to_float
      in
      Ok
        {
          Measure.name;
          ops_per_sec;
          ns_per_op;
          alloc_bytes_per_op;
          minor_words_per_op;
          events_fired;
          domains;
          scaling_efficiency;
        }

let doc_of_json json =
  let* version = field_int "schema_version" json in
  if version <> schema_version then
    Error
      (Printf.sprintf "unsupported schema_version %d (this reader knows %d)"
         version schema_version)
  else
    let* host_cores = field_int "host_cores" json in
    match Option.bind (Json.member "benchmarks" json) Json.to_list with
    | None -> Error "missing \"benchmarks\" array"
    | Some entries ->
        List.fold_left
          (fun acc entry ->
            let* acc = acc in
            let* r = decode_benchmark entry in
            Ok (r :: acc))
          (Ok []) entries
        |> Result.map (fun rev ->
               { host_cores; results = List.rev rev })

let doc_of_string s =
  let* json = Json.of_string s in
  doc_of_json json

let of_string s = Result.map (fun d -> d.results) (doc_of_string s)

let load_doc path =
  match In_channel.with_open_text path In_channel.input_all with
  | contents -> (
      match doc_of_string contents with
      | Ok doc -> Ok doc
      | Error msg -> Error (Printf.sprintf "%s: %s" path msg))
  | exception Sys_error msg -> Error msg

let load path = Result.map (fun d -> d.results) (load_doc path)

let save ?host_cores path results =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (to_string ?host_cores results))
