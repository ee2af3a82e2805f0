exception Error of Loc.t * string

(* The scanner reads [src] by index with explicit bounds checks and
   character matches: no [char option] on the per-character paths, no
   polymorphic compare, and no module-level tables (keywords are a
   string [match]), so startup allocates nothing. *)

type state = {
  src : string;
  file : string;
  mutable pos : int;
  mutable line : int;
  mutable bol : int; (* offset of the beginning of the current line *)
}

let loc st = Loc.make ~file:st.file ~line:st.line ~col:(st.pos - st.bol + 1)
let at_end st = st.pos >= String.length st.src

(* The character [k] past the cursor, or ['\000'] beyond the end: only
   ever matched against non-NUL characters, so the sentinel is safe. *)
let peek_at st k =
  if st.pos + k < String.length st.src then String.unsafe_get st.src (st.pos + k) else '\000'

let advance st =
  if (not (at_end st)) && String.unsafe_get st.src st.pos = '\n' then begin
    st.line <- st.line + 1;
    st.bol <- st.pos + 1
  end;
  st.pos <- st.pos + 1

let error st msg = raise (Error (loc st, msg))

(* Advance past characters satisfying [ok]; none of them is a newline. *)
let skip_while st ok =
  while (not (at_end st)) && ok (String.unsafe_get st.src st.pos) do
    st.pos <- st.pos + 1
  done

let is_digit = function '0' .. '9' -> true | _ -> false
let is_hex_digit = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false
let is_ident_char = function 'a' .. 'z' | 'A' .. 'Z' | '_' | '0' .. '9' -> true | _ -> false

let rec skip_blank_and_comments st =
  if not (at_end st) then
    match String.unsafe_get st.src st.pos with
    | ' ' | '\t' | '\r' | '\n' ->
      advance st;
      skip_blank_and_comments st
    | '/' when peek_at st 1 = '/' ->
      skip_while st (fun c -> c <> '\n');
      skip_blank_and_comments st
    | '/' when peek_at st 1 = '*' ->
      let start = loc st in
      st.pos <- st.pos + 2;
      let rec eat () =
        if at_end st then raise (Error (start, "unterminated comment"))
        else if String.unsafe_get st.src st.pos = '*' && peek_at st 1 = '/' then
          st.pos <- st.pos + 2
        else begin
          advance st;
          eat ()
        end
      in
      eat ();
      skip_blank_and_comments st
    | _ -> ()

(* [start] is the literal's location: an out-of-range literal is
   reported there. Accepted spellings are [int_of_string]'s. *)
let lex_number st start =
  let first = st.pos in
  (match (String.unsafe_get st.src first, peek_at st 1) with
   | '0', ('x' | 'X') ->
     st.pos <- st.pos + 2;
     skip_while st is_hex_digit;
     if st.pos = first + 2 then error st "expected hexadecimal digits after 0x"
   | _ -> skip_while st is_digit);
  match int_of_string_opt (String.sub st.src first (st.pos - first)) with
  | Some n -> Token.INT_LIT n
  | None -> raise (Error (start, "integer literal out of range"))

let lex_escaped st =
  (* Called after the backslash has been consumed. *)
  if at_end st then error st "unterminated escape";
  let c =
    match String.unsafe_get st.src st.pos with
    | 'n' -> '\n'
    | 't' -> '\t'
    | 'r' -> '\r'
    | '0' -> '\000'
    | ('\\' | '\'' | '"') as c -> c
    | c -> error st (Printf.sprintf "unknown escape '\\%c'" c)
  in
  st.pos <- st.pos + 1;
  c

let lex_char_lit st =
  st.pos <- st.pos + 1; (* opening quote *)
  let c =
    match peek_at st 0 with
    | '\\' ->
      st.pos <- st.pos + 1;
      lex_escaped st
    | '\'' -> error st "empty character literal"
    | _ when at_end st -> error st "empty character literal"
    | c ->
      advance st;
      c
  in
  if peek_at st 0 = '\'' then st.pos <- st.pos + 1
  else error st "unterminated character literal";
  Token.CHAR_LIT c

let lex_string_lit st =
  st.pos <- st.pos + 1; (* opening quote *)
  let buf = Buffer.create 16 in
  let rec go () =
    if at_end st then error st "unterminated string literal";
    match String.unsafe_get st.src st.pos with
    | '"' -> st.pos <- st.pos + 1
    | '\\' ->
      st.pos <- st.pos + 1;
      Buffer.add_char buf (lex_escaped st);
      go ()
    | c ->
      advance st;
      Buffer.add_char buf c;
      go ()
  in
  go ();
  Token.STRING_LIT (Buffer.contents buf)

let lex_ident_or_keyword st =
  let start = st.pos in
  skip_while st is_ident_char;
  match String.sub st.src start (st.pos - start) with
  | "int" -> Token.KW_INT
  | "char" -> Token.KW_CHAR
  | "void" -> Token.KW_VOID
  | "struct" -> Token.KW_STRUCT
  | "extern" -> Token.KW_EXTERN
  | "if" -> Token.KW_IF
  | "else" -> Token.KW_ELSE
  | "while" -> Token.KW_WHILE
  | "do" -> Token.KW_DO
  | "for" -> Token.KW_FOR
  | "return" -> Token.KW_RETURN
  | "break" -> Token.KW_BREAK
  | "continue" -> Token.KW_CONTINUE
  | "sizeof" -> Token.KW_SIZEOF
  | "NULL" -> Token.KW_NULL
  | "switch" -> Token.KW_SWITCH
  | "case" -> Token.KW_CASE
  | "default" -> Token.KW_DEFAULT
  | "enum" -> Token.KW_ENUM
  | s -> Token.IDENT s

(* One match on the current character; a two-character operator is
   chosen by a guard on the next one. *)
let one st tok = st.pos <- st.pos + 1; tok
let two st tok = st.pos <- st.pos + 2; tok

let lex_operator st c =
  match (c, peek_at st 1) with
  | '-', '>' -> two st Token.ARROW
  | '-', '=' -> two st Token.MINUSEQ
  | '-', '-' -> two st Token.MINUSMINUS
  | '&', '&' -> two st Token.AMPAMP
  | '|', '|' -> two st Token.PIPEPIPE
  | '=', '=' -> two st Token.EQEQ
  | '!', '=' -> two st Token.NEQ
  | '<', '=' -> two st Token.LE
  | '<', '<' -> two st Token.SHL
  | '>', '=' -> two st Token.GE
  | '>', '>' -> two st Token.SHR
  | '+', '=' -> two st Token.PLUSEQ
  | '+', '+' -> two st Token.PLUSPLUS
  | '*', '=' -> two st Token.STAREQ
  | '/', '=' -> two st Token.SLASHEQ
  | '(', _ -> one st Token.LPAREN
  | ')', _ -> one st Token.RPAREN
  | '{', _ -> one st Token.LBRACE
  | '}', _ -> one st Token.RBRACE
  | '[', _ -> one st Token.LBRACKET
  | ']', _ -> one st Token.RBRACKET
  | ';', _ -> one st Token.SEMI
  | ',', _ -> one st Token.COMMA
  | '.', _ -> one st Token.DOT
  | '?', _ -> one st Token.QUESTION
  | ':', _ -> one st Token.COLON
  | '+', _ -> one st Token.PLUS
  | '-', _ -> one st Token.MINUS
  | '*', _ -> one st Token.STAR
  | '/', _ -> one st Token.SLASH
  | '%', _ -> one st Token.PERCENT
  | '&', _ -> one st Token.AMP
  | '|', _ -> one st Token.PIPE
  | '^', _ -> one st Token.CARET
  | '~', _ -> one st Token.TILDE
  | '!', _ -> one st Token.BANG
  | '<', _ -> one st Token.LT
  | '>', _ -> one st Token.GT
  | '=', _ -> one st Token.ASSIGN
  | _ -> error st (Printf.sprintf "unexpected character %C" c)

let tokenize ?(file = "<input>") src =
  let st = { src; file; pos = 0; line = 1; bol = 0 } in
  let rec go acc =
    skip_blank_and_comments st;
    let l = loc st in
    if at_end st then Array.of_list (List.rev ((Token.EOF, l) :: acc))
    else begin
      let tok =
        match String.unsafe_get src st.pos with
        | '0' .. '9' -> lex_number st l
        | 'a' .. 'z' | 'A' .. 'Z' | '_' -> lex_ident_or_keyword st
        | '\'' -> lex_char_lit st
        | '"' -> lex_string_lit st
        | c -> lex_operator st c
      in
      go ((tok, l) :: acc)
    end
  in
  go []
