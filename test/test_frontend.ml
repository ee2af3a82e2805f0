(* Lexer, parser, pretty-printer round-trips, and typechecker
   acceptance/rejection. *)

open Minic

let toks src = Array.to_list (Lexer.tokenize src) |> List.map fst

let test_lexer_basics () =
  Alcotest.(check int) "eof only" 1 (List.length (toks ""));
  (match toks "int x = 42;" with
   | [ Token.KW_INT; Token.IDENT "x"; Token.ASSIGN; Token.INT_LIT 42; Token.SEMI; Token.EOF ]
     ->
     ()
   | _ -> Alcotest.fail "unexpected tokens");
  (match toks "0x1F" with
   | [ Token.INT_LIT 31; Token.EOF ] -> ()
   | _ -> Alcotest.fail "hex literal");
  (* Literals at the edge of the range keep [int_of_string]'s reading. *)
  List.iter
    (fun (src, n) ->
      match toks src with
      | [ Token.INT_LIT m; Token.EOF ] -> Alcotest.(check int) src n m
      | _ -> Alcotest.failf "%s: expected one integer" src)
    [ ("4611686018427387903", max_int);
      ("0x3FFFFFFFFFFFFFFF", max_int);
      ("0x4000000000000000", min_int);
      ("0x7FFFFFFFFFFFFFFF", -1);
      ("007", 7) ];
  (match toks "'a' '\\n' '\\0'" with
   | [ Token.CHAR_LIT 'a'; Token.CHAR_LIT '\n'; Token.CHAR_LIT '\000'; Token.EOF ] -> ()
   | _ -> Alcotest.fail "char literals");
  (match toks {|"hi\n"|} with
   | [ Token.STRING_LIT "hi\n"; Token.EOF ] -> ()
   | _ -> Alcotest.fail "string literal")

let test_lexer_operators () =
  (match toks "a->b && c || d == e != f <= g >= h << i >> j += 1" with
   | [ Token.IDENT "a"; Token.ARROW; Token.IDENT "b"; Token.AMPAMP; Token.IDENT "c";
       Token.PIPEPIPE; Token.IDENT "d"; Token.EQEQ; Token.IDENT "e"; Token.NEQ;
       Token.IDENT "f"; Token.LE; Token.IDENT "g"; Token.GE; Token.IDENT "h"; Token.SHL;
       Token.IDENT "i"; Token.SHR; Token.IDENT "j"; Token.PLUSEQ; Token.INT_LIT 1;
       Token.EOF ] ->
     ()
   | _ -> Alcotest.fail "operator stream")

let test_lexer_comments () =
  (match toks "1 /* multi \n line */ 2 // rest\n 3" with
   | [ Token.INT_LIT 1; Token.INT_LIT 2; Token.INT_LIT 3; Token.EOF ] -> ()
   | _ -> Alcotest.fail "comments skipped");
  Alcotest.(check bool) "unterminated comment raises" true
    (try
       ignore (Lexer.tokenize "/* oops");
       false
     with Lexer.Error _ -> true)

let test_lexer_positions () =
  let arr = Lexer.tokenize ~file:"f.c" "int\n  x;" in
  let _, loc = arr.(1) in
  Alcotest.(check int) "line" 2 loc.Loc.line;
  Alcotest.(check int) "col" 3 loc.Loc.col

(* Malformed inputs, each with the message and the location it must
   be reported at: neither may move when the scanner changes. *)
let test_lexer_errors () =
  List.iter
    (fun (what, src, (line, col), msg) ->
      match Lexer.tokenize ~file:"t.mc" src with
      | _ -> Alcotest.failf "%s: expected a lexical error" what
      | exception Lexer.Error (l, m) ->
        Alcotest.(check string) (what ^ ": message") msg m;
        Alcotest.(check string) (what ^ ": location")
          (Printf.sprintf "t.mc:%d:%d" line col) (Loc.to_string l))
    [ ("unterminated comment", "int x; /* oops\n never closed", (1, 8), "unterminated comment");
      ("unterminated string", "char *s = \"abc", (1, 15), "unterminated string literal");
      ("string across lines", "char *s = \"abc\ndef", (2, 4), "unterminated string literal");
      ("unterminated char", "char c = 'a;", (1, 12), "unterminated character literal");
      ("char at end", "char c = 'a", (1, 12), "unterminated character literal");
      ("empty char", "char c = '';", (1, 11), "empty character literal");
      ("0x without digits", "int x = 0x;", (1, 11), "expected hexadecimal digits after 0x");
      ("0x then non-hex", "int x =\n  0xg;", (2, 5), "expected hexadecimal digits after 0x");
      ("unknown escape in char", "char c = '\\q';", (1, 12), "unknown escape '\\q'");
      ("unknown escape in string", "char *s = \"a\\qb\";", (1, 14), "unknown escape '\\q'");
      ("escape at end", "char *s = \"a\\", (1, 14), "unterminated escape");
      ("at sign", "int @ x", (1, 5), "unexpected character '@'");
      ("at sign after newlines", "\n\n   @", (3, 4), "unexpected character '@'");
      ("NUL byte", "int x;\000", (1, 7), "unexpected character '\\000'");
      ("decimal out of range", "int x = 99999999999999999999;", (1, 9),
       "integer literal out of range");
      ("max_int + 1", "int x = 4611686018427387904;", (1, 9), "integer literal out of range");
      ("hex out of range", "int x = 0xFFFFFFFFFFFFFFFF;", (1, 9), "integer literal out of range") ]

(* The oSIP front end pinned byte for byte: the token stream with
   locations of examples/osip_library.mc, and the pretty-printed ASTs of
   that file and of the generated seed-7, 120-function library. *)
let read_file path = In_channel.with_open_bin path In_channel.input_all

let test_frontend_golden () =
  let lib = "../examples/osip_library.mc" in
  let src = read_file lib in
  let buf = Buffer.create 65536 in
  Array.iter
    (fun (tok, l) ->
      Buffer.add_string buf
        (Printf.sprintf "%s %d:%d\n" (Token.to_string tok) l.Loc.line l.Loc.col))
    (Lexer.tokenize ~file:lib src);
  let check name actual =
    Alcotest.(check string) name (read_file (Filename.concat "golden" name)) actual
  in
  check "osip_tokens.txt" (Buffer.contents buf);
  check "osip_library_pretty.txt" (Pretty.program_to_string (Parser.parse_program src));
  let gen, _ = Workloads.Osip_sim.generate ~seed:7 ~n:120 in
  check "osip_gen7_n120_pretty.txt" (Pretty.program_to_string (Parser.parse_program gen))

(* ---- parser ---------------------------------------------------------------- *)

let parse_ok src = ignore (Parser.parse_program src)

let parse_fails src =
  match Parser.parse_program src with
  | _ -> Alcotest.failf "expected parse error for: %s" src
  | exception Parser.Error _ -> ()

let test_parser_precedence () =
  let e = Parser.parse_expr "1 + 2 * 3" in
  (match e.Ast.edesc with
   | Ast.Ebinop (Ast.Add, { edesc = Ast.Eint 1; _ }, { edesc = Ast.Ebinop (Ast.Mul, _, _); _ })
     ->
     ()
   | _ -> Alcotest.fail "mul binds tighter than add");
  let e = Parser.parse_expr "a == b && c || d" in
  (match e.Ast.edesc with
   | Ast.Eor ({ edesc = Ast.Eand ({ edesc = Ast.Ebinop (Ast.Eq, _, _); _ }, _); _ }, _) -> ()
   | _ -> Alcotest.fail "|| above && above ==");
  let e = Parser.parse_expr "-x * y" in
  (match e.Ast.edesc with
   | Ast.Ebinop (Ast.Mul, { edesc = Ast.Eunop (Ast.Neg, _); _ }, _) -> ()
   | _ -> Alcotest.fail "unary binds tighter than mul");
  let e = Parser.parse_expr "*p + 1" in
  (match e.Ast.edesc with
   | Ast.Ebinop (Ast.Add, { edesc = Ast.Ederef _; _ }, _) -> ()
   | _ -> Alcotest.fail "deref binds tighter than add")

let test_parser_postfix () =
  let e = Parser.parse_expr "a->b.c[3]" in
  (match e.Ast.edesc with
   | Ast.Eindex ({ edesc = Ast.Efield ({ edesc = Ast.Earrow _; _ }, "c"); _ }, _) -> ()
   | _ -> Alcotest.fail "postfix chains left to right")

let test_parser_cast_vs_paren () =
  let e = Parser.parse_expr "(int)x" in
  (match e.Ast.edesc with
   | Ast.Ecast (Ctype.Tint, _) -> ()
   | _ -> Alcotest.fail "cast");
  let e = Parser.parse_expr "(x)" in
  (match e.Ast.edesc with
   | Ast.Evar "x" -> ()
   | _ -> Alcotest.fail "paren");
  let e = Parser.parse_expr "(struct foo *)p" in
  (match e.Ast.edesc with
   | Ast.Ecast (Ctype.Tptr (Ctype.Tstruct "foo"), _) -> ()
   | _ -> Alcotest.fail "struct pointer cast")

let test_parser_declarators () =
  let prog = Parser.parse_program "int *a[3]; int **b; char c[2][4];" in
  (match prog with
   | [ Ast.Gvar { gty = Ctype.Tarray (Ctype.Tptr Ctype.Tint, 3); _ };
       Ast.Gvar { gty = Ctype.Tptr (Ctype.Tptr Ctype.Tint); _ };
       Ast.Gvar { gty = Ctype.Tarray (Ctype.Tarray (Ctype.Tchar, 4), 2); _ } ] ->
     ()
   | _ -> Alcotest.fail "declarator types")

let test_parser_statements () =
  parse_ok
    {|
void f(int n) {
  int i;
  for (i = 0; i < n; i++) { }
  while (n > 0) { n--; if (n == 3) break; else continue; }
  do { n += 2; } while (n < 10);
  ;
  { int shadow; shadow = 1; }
  return;
}
|};
  parse_ok "int g(void) { return 1 ? 2 : 3; }";
  parse_ok "struct s { int a; struct s *next; }; struct s *mk();";
  parse_fails "int f( { }";
  parse_fails "void f() { if }";
  parse_fails "void f() { x = ; }";
  parse_fails "extern int bad() { return 1; }";
  parse_ok
    {|
int f(int x) {
  switch (x) {
  case 1: return 10;
  case 2:
  case 3: return 20;
  default: return 0;
  }
}
|};
  parse_fails "void f(int x) { switch (x) { case : } }";
  parse_fails "void f(int x) { switch (x) case 1: ; }";
  parse_ok "enum color { RED, GREEN = 5, BLUE, };";
  parse_ok "enum { A, B }; int f() { return A + B; }";
  parse_ok "enum tag { T1 }; enum tag f(enum tag t) { return t; }";
  parse_fails "enum color { };";
  parse_fails "enum color { RED GREEN };"

let test_pretty_roundtrip () =
  (* Parse, print, re-parse, print again: the two prints must agree. *)
  let check_src src =
    let p1 = Parser.parse_program src in
    let s1 = Pretty.program_to_string p1 in
    let p2 = Parser.parse_program s1 in
    let s2 = Pretty.program_to_string p2 in
    Alcotest.(check string) "print/parse/print fixpoint" s1 s2
  in
  check_src (fst Workloads.Paper_examples.section_2_1);
  check_src (fst Workloads.Paper_examples.section_2_5_cast);
  check_src (fst Workloads.Paper_examples.ac_controller);
  check_src (Workloads.Needham_schroeder.possibilistic ~fix:`None);
  check_src (Workloads.Needham_schroeder.dolev_yao ~fix:`Correct);
  check_src Workloads.Osip_sim.parser_vulnerable;
  check_src Workloads.Sip_parser.vulnerable;
  check_src (fst (Workloads.Osip_sim.generate ~seed:5 ~n:40));
  check_src
    {|
enum color { RED, GREEN = 5, BLUE };
int pick(int c) {
  switch (c) {
  case RED: return 1;
  case GREEN:
  case BLUE: return 2;
  default: return 0;
  }
}
|}

(* ---- typechecker ----------------------------------------------------------- *)

let tc src = Typecheck.check (Parser.parse_program src)

let tc_ok src = ignore (tc src)

let tc_fails src =
  match tc src with
  | _ -> Alcotest.failf "expected type error for: %s" src
  | exception Typecheck.Error _ -> ()

let test_typecheck_accepts () =
  tc_ok "int f(int x) { return x + 1; }";
  tc_ok "struct s { int a; }; int f(struct s *p) { return p->a; }";
  tc_ok "int f(char c) { return c + 1; }";
  tc_ok "int g; int f() { g = 3; return g; }";
  tc_ok "int f(int *p) { return *p; }";
  tc_ok "int f() { int a[3]; a[0] = 1; return a[0]; }";
  tc_ok "int f(int *p) { return p == NULL; }";
  tc_ok "int f(void *p) { int *q; q = (int *)p; return *q; }";
  tc_ok "void f() { int *p; p = (int *)malloc(sizeof(int)); *p = 3; free(p); }";
  tc_ok "int f(int x) { assert(x > 0); assume(x < 10); return x; }";
  tc_ok "int f(int *p, int *q) { return p - q; }";
  tc_ok "extern int e; int f() { return e; }"

let test_typecheck_rejects () =
  tc_fails "int f() { return y; }" (* undeclared *);
  tc_fails "int f(int x) { int x; return x; }" (* redeclaration *);
  tc_fails "int f() { break; return 0; }";
  tc_fails "int f() { continue; return 0; }";
  tc_fails "void f() { return 1; }";
  tc_fails "int f() { return; }";
  tc_fails "struct s { int a; }; int f(struct s p) { return 0; }" (* struct by value *);
  tc_fails "struct s { int a; }; struct s g; struct s h; void f() { g = h; }";
  tc_fails "int f(int x) { x(); return 0; }" (* call non-function *);
  tc_fails "int f() { return f(1); }" (* arity *);
  tc_fails "struct s { int a; }; int f(struct s *p) { return p->b; }" (* no field *);
  tc_fails "int f(int x) { return x->a; }" (* arrow on int *);
  tc_fails "int f(int x) { return *x; }" (* deref int *);
  tc_fails "int f() { return *(void *)0; }" (* deref void ptr *);
  tc_fails "int f(int *p, char *q) { p = q; return 0; }" (* ptr mismatch *);
  tc_fails "struct s { struct s inner; };" (* infinite struct *);
  tc_fails "int f() { 1 = 2; return 0; }" (* assign to rvalue *);
  tc_fails "int f() { &3; return 0; }" (* address of rvalue *);
  tc_fails "int x; int x;" (* duplicate global *);
  tc_fails "int f() { return 0; } int f() { return 1; }" (* duplicate function *);
  tc_fails "int g = 1 / 0;" (* bad const init *);
  tc_fails "int g = h;" (* non-constant global init *);
  tc_fails "void f(int x) { switch (x) { case 1: break; case 1: break; } }" (* dup case *);
  tc_fails "void f(int x) { switch (x) { default: break; default: break; } }" (* dup default *);
  tc_fails "void f(int x) { switch (x) { case x: break; } }" (* non-constant case *);
  tc_fails "struct s { int a; }; void f(struct s *p) { switch (p) { case 1: break; } }";
  tc_ok "void f(int x) { switch (x) { case 1: break; default: break; } }";
  tc_ok "void f(int x) { while (x > 0) { switch (x) { case 1: continue; } x = x - 1; } }";
  (* enums *)
  tc_ok "enum e { A, B = 7, C }; int f() { return A + B + C; }";
  tc_ok "enum e { A }; int g = A;";
  tc_ok "enum e { A, B }; void f(int x) { switch (x) { case A: break; case B: break; } }";
  tc_ok "enum e { A }; int f() { int A = 3; return A; }" (* locals shadow members *);
  tc_fails "enum e { A, B = A };  enum e2 { A };" (* duplicate member *);
  tc_fails "int A; enum e { A };" (* clashes with a global *);
  tc_fails "enum e { A }; void f() { A = 3; }" (* members are not lvalues *);
  (* initializer lists *)
  tc_ok "int a[3] = { 1, 2, 3 };";
  tc_ok "void f() { int a[2] = { 1 }; }";
  tc_fails "int a[2] = { 1, 2, 3 };" (* too many *);
  tc_fails "int x = { 1 };" (* brace list on a scalar *);
  tc_fails "struct s { int a; }; struct s v = { 1 };" (* structs unsupported *)

let test_enum_values () =
  let tp = tc "enum e { A, B = 7, C, D = C + 10 }; int f() { return D; }" in
  match Tast.find_func tp "f" with
  | Some { Tast.tbody = [ Tast.TSreturn (Some { tdesc = Tast.Tconst v; _ }) ]; _ } ->
    (* A=0, B=7, C=8, D=18 *)
    Alcotest.(check int) "D = C + 10 = 18" 18 v
  | _ -> Alcotest.fail "enum member not folded to a constant"

let test_typecheck_desugar () =
  (* NULL becomes const 0 with pointer type; sizeof becomes a constant
     in cells; e->f becomes deref+field. *)
  let tp = tc "struct s { int a; char b; int c; }; int f(struct s *p) { return p->c + sizeof(struct s); }" in
  match Tast.find_func tp "f" with
  | None -> Alcotest.fail "no f"
  | Some f ->
    (match f.Tast.tbody with
     | [ Tast.TSreturn (Some { tdesc = Tast.Tbinop (Ast.Add, lhs, rhs); _ }) ] ->
       (match (lhs.Tast.tdesc, rhs.Tast.tdesc) with
        | Tast.Tfield ({ tdesc = Tast.Tderef _; _ }, "c", 2), Tast.Tconst 3 -> ()
        | _ -> Alcotest.fail "expected field offset 2 and sizeof 3")
     | _ -> Alcotest.fail "unexpected body shape")

let test_typecheck_call_kinds () =
  let lib = [ Workloads.Paper_examples.lib_hash_sig ] in
  let tp =
    Typecheck.check ~library:lib
      (Parser.parse_program
         {|
int lib_hash(int x);
int ext_fn(int x);
int defined(int x) { return x; }
int top(int x) { return lib_hash(x) + ext_fn(x) + defined(x) + (int)malloc(1); }
|})
  in
  match Tast.find_func tp "top" with
  | None -> Alcotest.fail "no top"
  | Some f ->
    let kinds = ref [] in
    let rec walk (e : Tast.texpr) =
      match e.Tast.tdesc with
      | Tast.Tcall (kind, name, args) ->
        kinds := (name, kind) :: !kinds;
        List.iter walk args
      | Tast.Tbinop (_, a, b) ->
        walk a;
        walk b
      | Tast.Tcast (_, a) -> walk a
      | _ -> ()
    in
    (match f.Tast.tbody with
     | [ Tast.TSreturn (Some e) ] -> walk e
     | _ -> Alcotest.fail "body");
    let kind name = List.assoc name !kinds in
    Alcotest.(check bool) "library" true (kind "lib_hash" = Tast.Clibrary);
    Alcotest.(check bool) "external" true (kind "ext_fn" = Tast.Cexternal);
    Alcotest.(check bool) "program" true (kind "defined" = Tast.Cprogram);
    Alcotest.(check bool) "builtin" true (kind "malloc" = Tast.Cbuiltin Tast.Bmalloc)

let test_interface_extraction () =
  let tp =
    tc
      {|
extern int config;
int helper(int x);
struct msg { int a; };
int process(struct msg *m, int flags) { return helper(flags); }
|}
  in
  let itf = Dart.Interface.extract tp ~toplevel:"process" in
  Alcotest.(check (list string)) "params" [ "m"; "flags" ]
    (List.map fst itf.Dart.Interface.params);
  Alcotest.(check (list string)) "extern vars" [ "config" ]
    (List.map fst itf.Dart.Interface.external_vars);
  Alcotest.(check (list string)) "extern funcs" [ "helper" ]
    (List.map (fun (s : Tast.fsig) -> s.sig_name) itf.Dart.Interface.external_funcs);
  Alcotest.(check bool) "no toplevel" true
    (try
       ignore (Dart.Interface.extract tp ~toplevel:"absent");
       false
     with Dart.Interface.No_toplevel _ -> true)

let test_driver_gen () =
  let ast = Parser.parse_program (fst Workloads.Paper_examples.ac_controller) in
  let src = Dart.Driver_gen.driver_source ast ~toplevel:"ac_controller" ~depth:2 in
  Alcotest.(check bool) "declares arg fn" true (Str_contains.contains src "__dart_arg0");
  Alcotest.(check bool) "loops to depth" true (Str_contains.contains src "< 2");
  (* And the generated program must typecheck and lower. *)
  let full = Dart.Driver_gen.generate ast ~toplevel:"ac_controller" ~depth:2 in
  ignore (Ram.Lower.lower_program (Typecheck.check full))

let suite =
  [ Alcotest.test_case "lexer basics" `Quick test_lexer_basics;
    Alcotest.test_case "lexer operators" `Quick test_lexer_operators;
    Alcotest.test_case "lexer comments" `Quick test_lexer_comments;
    Alcotest.test_case "lexer positions" `Quick test_lexer_positions;
    Alcotest.test_case "lexer errors" `Quick test_lexer_errors;
    Alcotest.test_case "front-end golden" `Quick test_frontend_golden;
    Alcotest.test_case "parser precedence" `Quick test_parser_precedence;
    Alcotest.test_case "parser postfix" `Quick test_parser_postfix;
    Alcotest.test_case "parser cast vs paren" `Quick test_parser_cast_vs_paren;
    Alcotest.test_case "parser declarators" `Quick test_parser_declarators;
    Alcotest.test_case "parser statements" `Quick test_parser_statements;
    Alcotest.test_case "pretty roundtrip" `Quick test_pretty_roundtrip;
    Alcotest.test_case "typecheck accepts" `Quick test_typecheck_accepts;
    Alcotest.test_case "typecheck rejects" `Quick test_typecheck_rejects;
    Alcotest.test_case "enum values" `Quick test_enum_values;
    Alcotest.test_case "typecheck desugaring" `Quick test_typecheck_desugar;
    Alcotest.test_case "call classification" `Quick test_typecheck_call_kinds;
    Alcotest.test_case "interface extraction" `Quick test_interface_extraction;
    Alcotest.test_case "driver generation" `Quick test_driver_gen ]
