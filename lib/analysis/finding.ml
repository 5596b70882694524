(* A single rule violation, pinned to a source location. *)

type severity = Error | Warning

type t = {
  file : string;
  line : int;
  col : int;
  rule : string;
  severity : severity;
  message : string;
}

let make ~file ~line ?(col = 0) ~rule ~severity message =
  { file; line; col; rule; severity; message }

let severity_string = function Error -> "error" | Warning -> "warning"

let compare a b =
  match String.compare a.file b.file with
  | 0 -> (
      match Int.compare a.line b.line with
      | 0 -> (
          match Int.compare a.col b.col with
          | 0 -> String.compare a.rule b.rule
          | c -> c)
      | c -> c)
  | c -> c

let pp fmt t =
  Format.fprintf fmt "%s:%d:%d: [%s] %s: %s" t.file t.line t.col t.rule
    (severity_string t.severity) t.message

let to_string t = Format.asprintf "%a" pp t
