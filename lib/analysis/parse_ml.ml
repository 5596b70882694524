(* Parse .ml/.mli sources into Parsetrees via compiler-libs, plus the
   location and identifier helpers every pass shares.  Parse errors are
   reported back so the driver can record them once. *)

let error_message exn =
  match Location.error_of_exn exn with
  | Some (`Ok report) -> Format.asprintf "%a" Location.print_report report
  | _ -> Printexc.to_string exn

let parse ~file ~src =
  let lexbuf = Lexing.from_string src in
  Lexing.set_filename lexbuf file;
  match Parse.implementation lexbuf with
  | structure -> Ok structure
  | exception exn -> Error (error_message exn)

let parse_intf ~file ~src =
  let lexbuf = Lexing.from_string src in
  Lexing.set_filename lexbuf file;
  match Parse.interface lexbuf with
  | signature -> Ok signature
  | exception exn -> Error (error_message exn)

let line_of (loc : Location.t) = loc.loc_start.pos_lnum
let col_of (loc : Location.t) = loc.loc_start.pos_cnum - loc.loc_start.pos_bol

let flatten_longident lid = try Some (Longident.flatten lid) with _ -> None
