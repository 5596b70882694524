(* The repo's one JSON value type, printer and parser.

   The repo deliberately has no JSON dependency: the bench reports, the
   trace exports and the lint reports are simple enough that a
   recursive-descent parser is cheaper than a new package.  Two
   renderings share one escaper: [to_string] pretty-prints for humans,
   [to_buffer] is compact and deterministic for JSONL and Chrome traces.
   Integral numbers below 2^53 print as integer literals, so integer
   fields (ns timestamps, counters, ids) survive the float
   representation digit for digit. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let int n = Num (float_of_int n)

(* --- printing --------------------------------------------------------------- *)

(* 2^53: every integer of smaller magnitude is exact in a double. *)
let max_exact_int = 9007199254740992.

let add_escaped buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* JSON has no NaN or infinity; non-finite numbers print as null. *)
let add_num buf f =
  if not (Float.is_finite f) then Buffer.add_string buf "null"
  else if Float.is_integer f && Float.abs f < max_exact_int then
    Buffer.add_string buf (string_of_int (int_of_float f))
  else
    (* %.17g round-trips any double; trim to the shortest that does. *)
    let s = Printf.sprintf "%.12g" f in
    Buffer.add_string buf
      (if Float.equal (float_of_string s) f then s else Printf.sprintf "%.17g" f)

let rec print buf ~indent ~level v =
  let pad n = Buffer.add_string buf (String.make (n * indent) ' ') in
  let block opening closing items print_item =
    Buffer.add_char buf opening;
    Buffer.add_char buf '\n';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_string buf ",\n";
        pad (level + 1);
        print_item item)
      items;
    Buffer.add_char buf '\n';
    pad level;
    Buffer.add_char buf closing
  in
  match v with
  | List [] -> Buffer.add_string buf "[]"
  | Obj [] -> Buffer.add_string buf "{}"
  | List items ->
      block '[' ']' items (print buf ~indent ~level:(level + 1))
  | Obj fields ->
      block '{' '}' fields (fun (k, item) ->
          add_escaped buf k;
          Buffer.add_string buf ": ";
          print buf ~indent ~level:(level + 1) item)
  | Null | Bool _ | Num _ | Str _ -> to_buffer buf v

and to_buffer buf v =
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num f -> add_num buf f
  | Str s -> add_escaped buf s
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          to_buffer buf item)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, item) ->
          if i > 0 then Buffer.add_char buf ',';
          add_escaped buf k;
          Buffer.add_char buf ':';
          to_buffer buf item)
        fields;
      Buffer.add_char buf '}'

let to_string ?(indent = 2) v =
  let buf = Buffer.create 1024 in
  print buf ~indent ~level:0 v;
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* --- parsing ---------------------------------------------------------------- *)

exception Parse_error of string

type state = { src : string; mutable pos : int }

let error st msg =
  raise (Parse_error (Printf.sprintf "%s at offset %d" msg st.pos))

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let at st c = Option.equal Char.equal (peek st) (Some c)

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance st;
      skip_ws st
  | _ -> ()

let expect st c =
  if at st c then advance st else error st (Printf.sprintf "expected '%c'" c)

let expect_lit st lit v =
  let n = String.length lit in
  if
    st.pos + n <= String.length st.src
    && String.equal (String.sub st.src st.pos n) lit
  then begin
    st.pos <- st.pos + n;
    v
  end
  else error st (Printf.sprintf "expected %s" lit)

(* Four hex digits after a \u. *)
let hex4 st =
  if st.pos + 4 > String.length st.src then error st "truncated \\u escape";
  let digit c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> error st "bad \\u escape"
  in
  let code = ref 0 in
  for i = 0 to 3 do
    code := (!code lsl 4) lor digit st.src.[st.pos + i]
  done;
  st.pos <- st.pos + 4;
  !code

(* A \u escape (the "\u" already consumed), decoded to UTF-8; a UTF-16
   surrogate pair becomes one astral code point, a lone surrogate is an
   error. *)
let add_unicode_escape st buf =
  let code = hex4 st in
  let code =
    if code >= 0xD800 && code <= 0xDBFF then begin
      if
        not
          (st.pos + 2 <= String.length st.src
          && Char.equal st.src.[st.pos] '\\'
          && Char.equal st.src.[st.pos + 1] 'u')
      then error st "lone surrogate in \\u escape";
      st.pos <- st.pos + 2;
      let low = hex4 st in
      if low < 0xDC00 || low > 0xDFFF then
        error st "lone surrogate in \\u escape";
      0x10000 + ((code - 0xD800) lsl 10) + (low - 0xDC00)
    end
    else if code >= 0xDC00 && code <= 0xDFFF then
      error st "lone surrogate in \\u escape"
    else code
  in
  Buffer.add_utf_8_uchar buf (Uchar.of_int code)

let parse_string_body st =
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> error st "unterminated string"
    | Some '"' -> advance st
    | Some '\\' ->
        advance st;
        let c =
          match peek st with
          | Some c -> c
          | None -> error st "unterminated escape"
        in
        advance st;
        (match c with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'n' -> Buffer.add_char buf '\n'
        | 't' -> Buffer.add_char buf '\t'
        | 'r' -> Buffer.add_char buf '\r'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'u' -> add_unicode_escape st buf
        | _ -> error st "bad escape");
        go ()
    | Some c ->
        advance st;
        Buffer.add_char buf c;
        go ()
  in
  go ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let rec go () =
    match peek st with
    | Some ('0' .. '9' | '-' | '+' | '.' | 'e' | 'E') ->
        advance st;
        go ()
    | _ -> ()
  in
  go ();
  if st.pos = start then error st "expected a value";
  let s = String.sub st.src start (st.pos - start) in
  match float_of_string_opt s with
  | Some f when Float.is_finite f -> Num f
  | Some _ -> error st (Printf.sprintf "number %S out of range" s)
  | None -> error st (Printf.sprintf "malformed number %S" s)

(* The comma-separated items of a list or object, the opening bracket
   already consumed. *)
let parse_items st closing item =
  skip_ws st;
  if at st closing then begin
    advance st;
    []
  end
  else
    let rec go acc =
      let v = item () in
      skip_ws st;
      match peek st with
      | Some ',' ->
          advance st;
          go (v :: acc)
      | Some c when Char.equal c closing ->
          advance st;
          List.rev (v :: acc)
      | _ -> error st (Printf.sprintf "expected ',' or '%c'" closing)
    in
    go []

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> error st "unexpected end of input"
  | Some '{' ->
      advance st;
      Obj
        (parse_items st '}' (fun () ->
             skip_ws st;
             expect st '"';
             let k = parse_string_body st in
             skip_ws st;
             expect st ':';
             (k, parse_value st)))
  | Some '[' ->
      advance st;
      List (parse_items st ']' (fun () -> parse_value st))
  | Some '"' ->
      advance st;
      Str (parse_string_body st)
  | Some 't' -> expect_lit st "true" (Bool true)
  | Some 'f' -> expect_lit st "false" (Bool false)
  | Some 'n' -> expect_lit st "null" Null
  | Some _ -> parse_number st

let of_string s =
  let st = { src = s; pos = 0 } in
  match
    let v = parse_value st in
    skip_ws st;
    if st.pos < String.length s then error st "trailing garbage after JSON value";
    v
  with
  | v -> Ok v
  | exception Parse_error msg -> Error msg

(* --- accessors -------------------------------------------------------------- *)

let member key = function
  | Obj fields ->
      List.find_map
        (fun (k, v) -> if String.equal k key then Some v else None)
        fields
  | _ -> None

let to_float = function Num f -> Some f | _ -> None

let to_int = function
  | Num f when Float.is_integer f && Float.abs f < max_exact_int ->
      Some (int_of_float f)
  | _ -> None

let to_bool = function Bool b -> Some b | _ -> None

let to_str = function Str s -> Some s | _ -> None

let to_list = function List l -> Some l | _ -> None
