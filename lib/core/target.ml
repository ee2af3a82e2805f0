type source =
  | Text of { file : string option; text : string }
  | Parsed of Minic.Ast.program

type t = {
  tg_source : source;
  tg_toplevel : string;
  tg_depth : int option;
  tg_max_runs : int option;
  tg_sink : Telemetry.sink option;
  tg_breaker : Solver.Breaker.t option;
  tg_key : string;
}

(* Cache identity of the source. Text sources hash their bytes; parsed
   ASTs hash their marshalled form (immutable, no closures), so two
   targets over the same library AST share every prepared program the
   session caches. *)
let source_key = function
  | Text { text; _ } -> "text:" ^ Digest.to_hex (Digest.string text)
  | Parsed ast -> "ast:" ^ Digest.to_hex (Digest.string (Marshal.to_string ast []))

let make ?depth ?max_runs ?sink ?breaker ~toplevel source =
  { tg_source = source;
    tg_toplevel = toplevel;
    tg_depth = depth;
    tg_max_runs = max_runs;
    tg_sink = sink;
    tg_breaker = breaker;
    tg_key = source_key source }

let of_text ?file ~toplevel text = make ~toplevel (Text { file; text })
let of_ast ~toplevel ast = make ~toplevel (Parsed ast)
