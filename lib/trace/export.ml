module Time = Lazyctrl_sim.Time
module Json = Lazyctrl_util.Json

(* --- JSONL ----------------------------------------------------------------- *)

let to_jsonl events =
  let buf = Buffer.create 4096 in
  List.iter
    (fun e ->
      Json.to_buffer buf (Event.to_json e);
      Buffer.add_char buf '\n')
    events;
  Buffer.contents buf

let of_jsonl data =
  let lines = String.split_on_char '\n' data in
  let rec go acc lineno = function
    | [] -> Ok (List.rev acc)
    | line :: rest when String.length (String.trim line) = 0 ->
        go acc (lineno + 1) rest
    | line :: rest -> (
        match Result.bind (Json.of_string line) Event.of_json with
        | Ok e -> go (e :: acc) (lineno + 1) rest
        | Error msg -> Error (Printf.sprintf "line %d: %s" lineno msg))
  in
  go [] 1 lines

(* --- Chrome trace_event ---------------------------------------------------- *)

(* Process rows in the Perfetto UI: switches under pid 1 (one thread row
   per switch), the controller under pid 2. *)
let chrome_of_event (e : Event.t) =
  let pid, tid =
    match e.Event.switch with Some sw -> (1, sw) | None -> (2, 0)
  in
  Json.Obj
    [
      ("name", Json.Str (Event.kind_label e.Event.kind));
      ("cat", Json.Str "lazyctrl");
      ("ph", Json.Str "i");
      ("ts", Json.int (Time.to_ns e.Event.time / 1_000));
      ("pid", Json.int pid);
      ("tid", Json.int tid);
      ("s", Json.Str "t");
      ("args", Json.Obj [ ("ev", Event.to_json e) ]);
    ]

let to_chrome events =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[";
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_char buf ',';
      Json.to_buffer buf (chrome_of_event e))
    events;
  Buffer.add_string buf "]}";
  Buffer.contents buf

let of_chrome data =
  match Json.of_string data with
  | Error msg -> Error msg
  | Ok j -> (
      match Json.member "traceEvents" j with
      | Some (Json.List items) ->
          let rec go acc i = function
            | [] -> Ok (List.rev acc)
            | item :: rest -> (
                let ev =
                  match Json.member "args" item with
                  | Some args -> (
                      match Json.member "ev" args with
                      | Some ev -> Event.of_json ev
                      | None -> Error "missing args.ev")
                  | None -> Error "missing args"
                in
                match ev with
                | Ok e -> go (e :: acc) (i + 1) rest
                | Error msg ->
                    Error (Printf.sprintf "traceEvents[%d]: %s" i msg))
          in
          go [] 0 items
      | Some _ -> Error "traceEvents is not a list"
      | None -> Error "missing traceEvents field")

(* --- files ----------------------------------------------------------------- *)

let save path data =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc data)

let load path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let n = in_channel_length ic in
          Ok (really_input_string ic n))
