exception Error of Loc.t * string

type state = { toks : (Token.t * Loc.t) array; mutable pos : int }

let peek st = fst st.toks.(st.pos)
let peek_loc st = snd st.toks.(st.pos)

let peek_ahead st n =
  let i = st.pos + n in
  if i < Array.length st.toks then fst st.toks.(i) else Token.EOF

let advance st = if st.pos < Array.length st.toks - 1 then st.pos <- st.pos + 1

let error st msg = raise (Error (peek_loc st, msg))

(* [expect]/[accept]/[at] only ever take constant tokens, which are
   immediates: physical equality is constructor equality. *)
let at st tok = peek st == tok

let expect st tok =
  if at st tok then advance st
  else
    error st
      (Printf.sprintf "expected %s but found %s" (Token.to_string tok)
         (Token.to_string (peek st)))

let accept st tok =
  if at st tok then begin
    advance st;
    true
  end
  else false

let expect_ident st =
  match peek st with
  | Token.IDENT s ->
    advance st;
    s
  | t -> error st (Printf.sprintf "expected identifier but found %s" (Token.to_string t))

let expect_int st =
  match peek st with
  | Token.INT_LIT n ->
    advance st;
    n
  | t -> error st (Printf.sprintf "expected integer but found %s" (Token.to_string t))

(* ---- types --------------------------------------------------------------- *)

let starts_type st =
  match peek st with
  | Token.KW_INT | Token.KW_CHAR | Token.KW_VOID | Token.KW_STRUCT | Token.KW_ENUM -> true
  | _ -> false

(* Base type possibly followed by stars: [int], [char], [void],
   [struct name], each with any number of ['*']. *)
let parse_base_type st =
  let base =
    match peek st with
    | Token.KW_INT ->
      advance st;
      Ctype.Tint
    | Token.KW_CHAR ->
      advance st;
      Ctype.Tchar
    | Token.KW_VOID ->
      advance st;
      Ctype.Tvoid
    | Token.KW_STRUCT ->
      advance st;
      let name = expect_ident st in
      Ctype.Tstruct name
    | Token.KW_ENUM ->
      (* Enums are plain ints in MiniC; 'enum X' in type position is an
         int alias. *)
      advance st;
      ignore (expect_ident st);
      Ctype.Tint
    | t -> error st (Printf.sprintf "expected a type but found %s" (Token.to_string t))
  in
  let rec stars ty = if accept st Token.STAR then stars (Ctype.Tptr ty) else ty in
  stars base

(* A declarator after a base type: more stars, a name, then array
   suffixes: [t **name[3][4]]. *)
let parse_declarator st base =
  let rec stars ty = if accept st Token.STAR then stars (Ctype.Tptr ty) else ty in
  let ty = stars base in
  let name = expect_ident st in
  let rec suffixes ty =
    if accept st Token.LBRACKET then begin
      let n = expect_int st in
      expect st Token.RBRACKET;
      (* Innermost suffix binds closest: recurse first. *)
      Ctype.Tarray (suffixes ty, n)
    end
    else ty
  in
  (suffixes ty, name)

(* ---- expressions ---------------------------------------------------------- *)

(* Binary operators below [&&], loosest first: [|], [^], [&], equality,
   relational, shift, additive, multiplicative. *)
let binop_info = function
  | Token.PIPE -> Some (1, Ast.Bor)
  | Token.CARET -> Some (2, Ast.Bxor)
  | Token.AMP -> Some (3, Ast.Band)
  | Token.EQEQ -> Some (4, Ast.Eq)
  | Token.NEQ -> Some (4, Ast.Ne)
  | Token.LT -> Some (5, Ast.Lt)
  | Token.LE -> Some (5, Ast.Le)
  | Token.GT -> Some (5, Ast.Gt)
  | Token.GE -> Some (5, Ast.Ge)
  | Token.SHL -> Some (6, Ast.Shl)
  | Token.SHR -> Some (6, Ast.Shr)
  | Token.PLUS -> Some (7, Ast.Add)
  | Token.MINUS -> Some (7, Ast.Sub)
  | Token.STAR -> Some (8, Ast.Mul)
  | Token.SLASH -> Some (8, Ast.Div)
  | Token.PERCENT -> Some (8, Ast.Mod)
  | _ -> None

let rec parse_expr_prec st =
  let loc = peek_loc st in
  let cond = parse_or st in
  if accept st Token.QUESTION then begin
    let e1 = parse_expr_prec st in
    expect st Token.COLON;
    let e2 = parse_expr_prec st in
    Ast.mk_expr ~loc (Ast.Econd (cond, e1, e2))
  end
  else cond

and parse_or st =
  let rec go lhs =
    let loc = peek_loc st in
    if accept st Token.PIPEPIPE then begin
      let rhs = parse_and st in
      go (Ast.mk_expr ~loc (Ast.Eor (lhs, rhs)))
    end
    else lhs
  in
  go (parse_and st)

and parse_and st =
  let rec go lhs =
    let loc = peek_loc st in
    if accept st Token.AMPAMP then begin
      let rhs = parse_binop st 1 in
      go (Ast.mk_expr ~loc (Ast.Eand (lhs, rhs)))
    end
    else lhs
  in
  go (parse_binop st 1)

(* Precedence climbing over [binop_info]: operators at or above
   [min_prec] extend [lhs] leftwards, and each right operand binds only
   tighter operators, so every level stays left-associative. *)
and parse_binop st min_prec =
  let rec go lhs =
    match binop_info (peek st) with
    | Some (prec, op) when prec >= min_prec ->
      let loc = peek_loc st in
      advance st;
      let rhs = parse_binop st (prec + 1) in
      go (Ast.mk_expr ~loc (Ast.Ebinop (op, lhs, rhs)))
    | Some _ | None -> lhs
  in
  go (parse_unary st)

and parse_unary st =
  let loc = peek_loc st in
  match peek st with
  | Token.MINUS ->
    advance st;
    let operand = parse_unary st in
    (* Fold negation of literals so negative constants round-trip. *)
    (match operand.Ast.edesc with
     | Ast.Eint n -> Ast.mk_expr ~loc (Ast.Eint (-n))
     | _ -> Ast.mk_expr ~loc (Ast.Eunop (Ast.Neg, operand)))
  | Token.BANG ->
    advance st;
    Ast.mk_expr ~loc (Ast.Eunop (Ast.Lognot, parse_unary st))
  | Token.TILDE ->
    advance st;
    Ast.mk_expr ~loc (Ast.Eunop (Ast.Bitnot, parse_unary st))
  | Token.STAR ->
    advance st;
    Ast.mk_expr ~loc (Ast.Ederef (parse_unary st))
  | Token.AMP ->
    advance st;
    Ast.mk_expr ~loc (Ast.Eaddr (parse_unary st))
  | Token.KW_SIZEOF ->
    advance st;
    expect st Token.LPAREN;
    let ty = parse_base_type st in
    expect st Token.RPAREN;
    Ast.mk_expr ~loc (Ast.Esizeof ty)
  | Token.LPAREN when starts_type_at st 1 ->
    (* A cast: '(' type ')' unary. *)
    advance st;
    let ty = parse_base_type st in
    expect st Token.RPAREN;
    Ast.mk_expr ~loc (Ast.Ecast (ty, parse_unary st))
  | _ -> parse_postfix st

and starts_type_at st n =
  match peek_ahead st n with
  | Token.KW_INT | Token.KW_CHAR | Token.KW_VOID | Token.KW_STRUCT | Token.KW_ENUM -> true
  | _ -> false

and parse_postfix st =
  let e = parse_primary st in
  let rec go e =
    let loc = peek_loc st in
    match peek st with
    | Token.LBRACKET ->
      advance st;
      let idx = parse_expr_prec st in
      expect st Token.RBRACKET;
      go (Ast.mk_expr ~loc (Ast.Eindex (e, idx)))
    | Token.DOT ->
      advance st;
      let f = expect_ident st in
      go (Ast.mk_expr ~loc (Ast.Efield (e, f)))
    | Token.ARROW ->
      advance st;
      let f = expect_ident st in
      go (Ast.mk_expr ~loc (Ast.Earrow (e, f)))
    | _ -> e
  in
  go e

and parse_primary st =
  let loc = peek_loc st in
  match peek st with
  | Token.INT_LIT n ->
    advance st;
    Ast.mk_expr ~loc (Ast.Eint n)
  | Token.CHAR_LIT c ->
    advance st;
    Ast.mk_expr ~loc (Ast.Echar c)
  | Token.STRING_LIT s ->
    advance st;
    Ast.mk_expr ~loc (Ast.Estring s)
  | Token.KW_NULL ->
    advance st;
    Ast.mk_expr ~loc Ast.Enull
  | Token.IDENT name ->
    advance st;
    if accept st Token.LPAREN then begin
      let args = parse_args st in
      Ast.mk_expr ~loc (Ast.Ecall (name, args))
    end
    else Ast.mk_expr ~loc (Ast.Evar name)
  | Token.LPAREN ->
    advance st;
    let e = parse_expr_prec st in
    expect st Token.RPAREN;
    e
  | t -> error st (Printf.sprintf "expected an expression but found %s" (Token.to_string t))

and parse_args st =
  if accept st Token.RPAREN then []
  else begin
    let rec go acc =
      let e = parse_expr_prec st in
      if accept st Token.COMMA then go (e :: acc)
      else begin
        expect st Token.RPAREN;
        List.rev (e :: acc)
      end
    in
    go []
  end

(* ---- statements ----------------------------------------------------------- *)

let desugar_opassign loc lhs op rhs =
  Ast.mk_stmt ~loc (Ast.Sassign (lhs, Ast.mk_expr ~loc (Ast.Ebinop (op, lhs, rhs))))

(* An initializer: a brace list or a plain expression. *)
let parse_initializer st =
  if accept st Token.LBRACE then begin
    let rec elems acc =
      let e = parse_expr_prec st in
      if accept st Token.COMMA then begin
        if accept st Token.RBRACE then List.rev (e :: acc) (* trailing comma *)
        else elems (e :: acc)
      end
      else begin
        expect st Token.RBRACE;
        List.rev (e :: acc)
      end
    in
    Ast.Init_list (elems [])
  end
  else Ast.Init_expr (parse_expr_prec st)

(* A "simple" statement: assignment, op-assignment, increment, or a
   bare expression (typically a call). Used for statement positions
   and for the init/step slots of [for]. Does not consume ';'. *)
let rec parse_simple st =
  let loc = peek_loc st in
  let lhs = parse_expr_prec st in
  match peek st with
  | Token.ASSIGN ->
    advance st;
    let rhs = parse_expr_prec st in
    Ast.mk_stmt ~loc (Ast.Sassign (lhs, rhs))
  | Token.PLUSEQ ->
    advance st;
    desugar_opassign loc lhs Ast.Add (parse_expr_prec st)
  | Token.MINUSEQ ->
    advance st;
    desugar_opassign loc lhs Ast.Sub (parse_expr_prec st)
  | Token.STAREQ ->
    advance st;
    desugar_opassign loc lhs Ast.Mul (parse_expr_prec st)
  | Token.SLASHEQ ->
    advance st;
    desugar_opassign loc lhs Ast.Div (parse_expr_prec st)
  | Token.PLUSPLUS ->
    advance st;
    desugar_opassign loc lhs Ast.Add (Ast.mk_expr ~loc (Ast.Eint 1))
  | Token.MINUSMINUS ->
    advance st;
    desugar_opassign loc lhs Ast.Sub (Ast.mk_expr ~loc (Ast.Eint 1))
  | _ -> Ast.mk_stmt ~loc (Ast.Sexpr lhs)

and parse_stmt st =
  let loc = peek_loc st in
  match peek st with
  | Token.SEMI ->
    advance st;
    Ast.mk_stmt ~loc (Ast.Sblock [])
  | Token.LBRACE -> Ast.mk_stmt ~loc (Ast.Sblock (parse_block st))
  | Token.KW_IF ->
    advance st;
    expect st Token.LPAREN;
    let cond = parse_expr_prec st in
    expect st Token.RPAREN;
    let then_b = parse_stmt_as_block st in
    let else_b = if accept st Token.KW_ELSE then parse_stmt_as_block st else [] in
    Ast.mk_stmt ~loc (Ast.Sif (cond, then_b, else_b))
  | Token.KW_WHILE ->
    advance st;
    expect st Token.LPAREN;
    let cond = parse_expr_prec st in
    expect st Token.RPAREN;
    let body = parse_stmt_as_block st in
    Ast.mk_stmt ~loc (Ast.Swhile (cond, body))
  | Token.KW_DO ->
    advance st;
    let body = parse_stmt_as_block st in
    expect st Token.KW_WHILE;
    expect st Token.LPAREN;
    let cond = parse_expr_prec st in
    expect st Token.RPAREN;
    expect st Token.SEMI;
    Ast.mk_stmt ~loc (Ast.Sdowhile (body, cond))
  | Token.KW_FOR ->
    advance st;
    expect st Token.LPAREN;
    let init =
      if at st Token.SEMI then None
      else if starts_type st then Some (parse_decl_stmt st ~consume_semi:false)
      else Some (parse_simple st)
    in
    expect st Token.SEMI;
    let cond = if at st Token.SEMI then None else Some (parse_expr_prec st) in
    expect st Token.SEMI;
    let step = if at st Token.RPAREN then None else Some (parse_simple st) in
    expect st Token.RPAREN;
    let body = parse_stmt_as_block st in
    Ast.mk_stmt ~loc (Ast.Sfor (init, cond, step, body))
  | Token.KW_SWITCH ->
    advance st;
    expect st Token.LPAREN;
    let scrutinee = parse_expr_prec st in
    expect st Token.RPAREN;
    expect st Token.LBRACE;
    let parse_label () =
      if accept st Token.KW_CASE then begin
        let e = parse_expr_prec st in
        expect st Token.COLON;
        Some (Ast.Case e)
      end
      else if accept st Token.KW_DEFAULT then begin
        expect st Token.COLON;
        Some Ast.Default
      end
      else None
    in
    let rec parse_groups acc =
      match parse_label () with
      | None ->
        expect st Token.RBRACE;
        List.rev acc
      | Some first ->
        let rec more_labels labels =
          match parse_label () with
          | Some l -> more_labels (l :: labels)
          | None -> List.rev labels
        in
        let labels = more_labels [ first ] in
        let rec body acc =
          match peek st with
          | Token.KW_CASE | Token.KW_DEFAULT | Token.RBRACE -> List.rev acc
          | _ -> body (parse_stmt st :: acc)
        in
        let case_body = body [] in
        parse_groups ({ Ast.case_labels = labels; case_body } :: acc)
    in
    let groups = parse_groups [] in
    Ast.mk_stmt ~loc (Ast.Sswitch (scrutinee, groups))
  | Token.KW_RETURN ->
    advance st;
    let e = if at st Token.SEMI then None else Some (parse_expr_prec st) in
    expect st Token.SEMI;
    Ast.mk_stmt ~loc (Ast.Sreturn e)
  | Token.KW_BREAK ->
    advance st;
    expect st Token.SEMI;
    Ast.mk_stmt ~loc Ast.Sbreak
  | Token.KW_CONTINUE ->
    advance st;
    expect st Token.SEMI;
    Ast.mk_stmt ~loc Ast.Scontinue
  | _ when starts_type st ->
    let s = parse_decl_stmt st ~consume_semi:true in
    s
  | _ ->
    let s = parse_simple st in
    expect st Token.SEMI;
    s

and parse_decl_stmt st ~consume_semi =
  let loc = peek_loc st in
  let base = parse_base_type st in
  let ty, name = parse_declarator st base in
  let init = if accept st Token.ASSIGN then Some (parse_initializer st) else None in
  if consume_semi then expect st Token.SEMI;
  Ast.mk_stmt ~loc (Ast.Sdecl (ty, name, init))

and parse_stmt_as_block st =
  match parse_stmt st with
  | { Ast.sdesc = Ast.Sblock b; _ } -> b
  | s -> [ s ]

and parse_block st =
  expect st Token.LBRACE;
  let rec go acc =
    if accept st Token.RBRACE then List.rev acc else go (parse_stmt st :: acc)
  in
  go []

(* ---- globals -------------------------------------------------------------- *)

let parse_params st =
  expect st Token.LPAREN;
  if accept st Token.RPAREN then []
  else if at st Token.KW_VOID && peek_ahead st 1 == Token.RPAREN then begin
    advance st;
    advance st;
    []
  end
  else begin
    let rec go acc =
      let base = parse_base_type st in
      let ty, name = parse_declarator st base in
      if accept st Token.COMMA then go ((ty, name) :: acc)
      else begin
        expect st Token.RPAREN;
        List.rev ((ty, name) :: acc)
      end
    in
    go []
  end

let parse_struct_def st =
  expect st Token.KW_STRUCT;
  let name = expect_ident st in
  expect st Token.LBRACE;
  let rec fields acc =
    if accept st Token.RBRACE then List.rev acc
    else begin
      let base = parse_base_type st in
      let ty, fname = parse_declarator st base in
      expect st Token.SEMI;
      fields ((fname, ty) :: acc)
    end
  in
  let sfields = fields [] in
  expect st Token.SEMI;
  { Ctype.sname = name; sfields }

let parse_enum_def st =
  expect st Token.KW_ENUM;
  let ename =
    match peek st with
    | Token.IDENT n ->
      advance st;
      Some n
    | _ -> None
  in
  expect st Token.LBRACE;
  let rec members acc =
    let name = expect_ident st in
    let value = if accept st Token.ASSIGN then Some (parse_expr_prec st) else None in
    let acc = (name, value) :: acc in
    if accept st Token.COMMA then begin
      (* allow a trailing comma *)
      if at st Token.RBRACE then begin
        advance st;
        List.rev acc
      end
      else members acc
    end
    else begin
      expect st Token.RBRACE;
      List.rev acc
    end
  in
  let emembers = members [] in
  expect st Token.SEMI;
  Ast.Genum { ename; emembers }

let parse_global st =
  let loc = peek_loc st in
  (* A struct *definition* is 'struct' IDENT '{'; otherwise 'struct'
     begins a type as usual. An enum definition is 'enum' [IDENT] '{'. *)
  if at st Token.KW_ENUM
     && (peek_ahead st 1 == Token.LBRACE || peek_ahead st 2 == Token.LBRACE)
  then parse_enum_def st
  else if at st Token.KW_STRUCT && peek_ahead st 2 == Token.LBRACE then
    Ast.Gstruct (parse_struct_def st)
  else begin
    let extern = accept st Token.KW_EXTERN in
    let base = parse_base_type st in
    let ty, name = parse_declarator st base in
    if at st Token.LPAREN then begin
      let fparams = parse_params st in
      if accept st Token.SEMI then
        Ast.Gfun { fname = name; fret = ty; fparams; fbody = None; floc = loc }
      else begin
        if extern then error st "an extern function cannot have a body";
        let body = parse_block st in
        Ast.Gfun { fname = name; fret = ty; fparams; fbody = Some body; floc = loc }
      end
    end
    else begin
      let ginit = if accept st Token.ASSIGN then Some (parse_initializer st) else None in
      expect st Token.SEMI;
      if extern && Option.is_some ginit then error st "an extern variable cannot have an initializer";
      Ast.Gvar { gty = ty; gname = name; ginit; gextern = extern; gloc = loc }
    end
  end

let parse_program ?(file = "<input>") src =
  let toks = Lexer.tokenize ~file src in
  let st = { toks; pos = 0 } in
  let rec go acc = if at st Token.EOF then List.rev acc else go (parse_global st :: acc) in
  go []

let parse_expr ?(file = "<input>") src =
  let toks = Lexer.tokenize ~file src in
  let st = { toks; pos = 0 } in
  let e = parse_expr_prec st in
  expect st Token.EOF;
  e
