(** JSON values, printing and parsing: the one implementation behind the
    bench reports, the trace exports and the lint reports.

    The printer always emits valid JSON: non-finite numbers print as
    [null], and integral numbers below 2{^53} print as integer literals,
    so integer fields keep their exact digits.  The parser never raises:
    malformed input, out-of-range numbers and lone UTF-16 surrogates are
    an [Error]. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val int : int -> t
(** [Num] of an integer; exact, and printed as an integer literal, below
    2{^53} in magnitude. *)

val to_string : ?indent:int -> t -> string
(** Pretty-print with a trailing newline; [indent] defaults to 2. *)

val to_buffer : Buffer.t -> t -> unit
(** Compact rendering (no whitespace), fields in the order given —
    deterministic, for line-oriented exports. *)

val of_string : string -> (t, string) result
(** Parse one JSON value, surrounded by optional whitespace; [Error]
    carries a message with an offset.  [\u] escapes decode to UTF-8. *)

val member : string -> t -> t option
(** First binding of the field in an [Obj]; [None] on anything else. *)

val to_float : t -> float option

val to_int : t -> int option
(** [None] unless the value is an integral number below 2{^53} in
    magnitude: [3.5] is not an integer. *)

val to_bool : t -> bool option
val to_str : t -> string option
val to_list : t -> t list option
