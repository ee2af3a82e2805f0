(** How persisted artifacts are spelled and written: checkpoints (line
    records), JSONL traces and status files (flat JSON objects), and the
    JSON reports (built with {!Json.string}). Each spelling has one
    encoder and one decoder here; the modules that own a format only
    choose its records and fields. *)

exception Bad of string
(** Raised by every decoder below with a one-line reason. *)

val bad : ('a, unit, string, 'b) format4 -> 'a
(** Raise {!Bad} with a formatted message. *)

(** {1 Files} *)

val write_atomic : ?fault:Faultsim.t -> path:string -> string -> unit
(** Write [path ^ ".tmp"], flush it, then rename it over [path]: the
    rename is atomic on POSIX, so a reader (or a crash) sees either the
    old file or the new one, never a torn write. When [fault] is given,
    an armed {!Faultsim.Io_error} probe fires first and fails the write
    as a full disk would. Raises [Sys_error]. *)

val read_file : string -> string
(** Whole-file read; the channel is closed on every path. Raises
    [Sys_error], or [End_of_file] when the file shrinks mid-read. *)

(** {1 Flat JSON objects}: string, integer and boolean fields, no nesting *)
module Json : sig
  type value =
    | Str of string
    | Int of int64
    | Bool of bool

  val string : string -> string
  (** [s] as a quoted JSON string: ['"'], ['\\'] and newline get their
      two-character escapes, every other byte below 0x20 is written
      [\u00XX], and all other bytes pass through unchanged. *)

  val flat_object : (string * value) list -> string
  (** [{"k":v,...}] in list order, with no spaces and no newline. *)

  val parse_flat : string -> (string * value) list
  (** Inverse of {!flat_object}: the fields in source order. Also
      accepts blanks between tokens and the escapes [\/], [\t] and
      [\r]. Raises {!Bad}. *)

  val str : (string * value) list -> string -> string
  val int : (string * value) list -> string -> int
  val i64 : (string * value) list -> string -> int64
  val bool : (string * value) list -> string -> bool
  (** Typed field readers; a missing or mistyped field raises {!Bad}. *)
end

(** {1 Line records}

    One record per line, tokens separated by single spaces, the first
    token naming the record. Strings are %-escaped so they never contain
    a separator. Empty lines are ignored on read. *)
module Lines : sig
  val esc : string -> string
  (** Replace space, ['%'], newline, tab and CR by [%XX] (two lowercase
      hex digits); every other byte passes through. *)

  val unesc : string -> string
  (** Inverse of {!esc}; a ['%'] not followed by two hex digits raises
      {!Bad}. *)

  val line : Buffer.t -> ('a, unit, string, unit) format4 -> 'a
  (** Append one formatted record and its newline. *)

  val section : Buffer.t -> string -> (Buffer.t -> 'a -> unit) -> 'a list -> unit
  (** [section buf tag write items]: a ["tag N"] count record, then
      [write buf item] for each item. *)

  val bool_tag : bool -> string
  (** ["1"] or ["0"]. *)

  type reader

  val reader : string -> reader

  val set_tap : reader -> Buffer.t option -> unit
  (** While a tap is set, every line the reader consumes is also
      appended to it with its newline: the exact bytes of a block of
      records, for a checksum. *)

  val next_line : reader -> string -> string
  (** The next non-empty line; at end of input raises {!Bad} naming
      the record that was wanted. *)

  val fields : reader -> string -> string list
  (** [fields r tag] reads the next record, checks that it is a [tag]
      record and returns its remaining tokens. Raises {!Bad}. *)

  val field : reader -> string -> string
  (** {!fields} for a record with exactly one token. *)

  val malformed : string -> 'a
  (** Raise the {!Bad} of {!fields} for a [tag] record with the wrong
      tokens. *)

  val int_tok : string -> string -> int
  val bool_tok : string -> string -> bool
  val str_tok : string -> string -> string
  val pair_tok : string -> string -> string * string
  (** [int_tok what tok] and friends decode one token of a [what]
      record, raising {!Bad}; [str_tok] applies {!unesc}, [pair_tok]
      splits an [a:b] token. *)

  val read_section : reader -> string -> (reader -> 'a) -> 'a list
  (** Inverse of {!section}. *)

  val expect_end : reader -> unit
  (** Read the closing ["end"] record. *)
end
