(** Test-driver generation (paper §3.2, technique 2).

    Synthesizes, at the AST level, the nondeterministic driver the
    paper generates as C code: a [__dart_main] function that calls the
    toplevel function [depth] times, each argument supplied by a fresh
    per-position external function — so every argument value is an
    input DART controls. External variables are initialized by the
    engine directly in memory (the host-side [random_init]), and
    external functions declared by the program are simulated by the
    engine at call time; both follow Figure 8's recursive rules. *)

open Minic

let wrapper_name = "__dart_main"

let arg_fn_name i = Printf.sprintf "__dart_arg%d" i

let is_driver_function name =
  name = wrapper_name
  || String.length name >= 7 && String.sub name 0 7 = "__dart_"

let coin_site = "__coin"

let is_harness_site name = is_driver_function name || name = coin_site

exception No_toplevel of string

let find_toplevel (prog : Ast.program) name =
  let found =
    List.find_opt
      (fun g ->
        match g with
        | Ast.Gfun f -> f.Ast.fname = name && f.Ast.fbody <> None
        | Ast.Gstruct _ | Ast.Gvar _ | Ast.Genum _ -> false)
      prog
  in
  match found with
  | Some (Ast.Gfun f) -> f
  | _ -> raise (No_toplevel name)

(** Extend [prog] with the generated driver. The result's entry point
    is {!wrapper_name}. *)
let generate (prog : Ast.program) ~toplevel ~depth : Ast.program =
  (* A driver that never calls the toplevel would run no user code at
     all, and the search would then report a vacuous COMPLETE. *)
  if depth < 1 then invalid_arg "Driver_gen.generate: depth must be positive";
  let f = find_toplevel prog toplevel in
  let protos =
    List.mapi
      (fun i (ty, _) ->
        Ast.Gfun
          { Ast.fname = arg_fn_name i;
            fret = ty;
            fparams = [];
            fbody = None;
            floc = Loc.dummy })
      f.Ast.fparams
  in
  let e d = Ast.mk_expr d in
  let s d = Ast.mk_stmt d in
  let counter = "__dart_i" in
  let call_args = List.mapi (fun i _ -> e (Ast.Ecall (arg_fn_name i, []))) f.Ast.fparams in
  let call = s (Ast.Sexpr (e (Ast.Ecall (toplevel, call_args)))) in
  let loop =
    s
      (Ast.Sfor
         ( Some (s (Ast.Sdecl (Ctype.Tint, counter, Some (Ast.Init_expr (e (Ast.Eint 0)))))),
           Some (e (Ast.Ebinop (Ast.Lt, e (Ast.Evar counter), e (Ast.Eint depth)))),
           Some
             (s
                (Ast.Sassign
                   ( e (Ast.Evar counter),
                     e (Ast.Ebinop (Ast.Add, e (Ast.Evar counter), e (Ast.Eint 1))) ))),
           [ call ] ))
  in
  let main =
    Ast.Gfun
      { Ast.fname = wrapper_name;
        fret = Ctype.Tvoid;
        fparams = [];
        fbody = Some [ loop ];
        floc = Loc.dummy }
  in
  prog @ protos @ [ main ]

(** The generated driver rendered as MiniC source (what the paper's
    Figure 7 shows for the AC-controller). *)
let driver_source (prog : Ast.program) ~toplevel ~depth =
  let full = generate prog ~toplevel ~depth in
  let added =
    List.filteri (fun i _ -> i >= List.length prog) full
  in
  Pretty.program_to_string added
