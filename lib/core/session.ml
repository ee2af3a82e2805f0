type t = {
  s_options : Driver.options;
  s_jobs : int;
  s_portfolio : Strategy.t list;
  s_should_stop : unit -> bool;
  s_cache : (string * string * int, Ram.Instr.program) Hashtbl.t;
      (* (source key, toplevel, depth) -> prepared program *)
  s_lock : Mutex.t;
  mutable s_prepared : int;
  mutable s_hits : int;
}

let create ?(jobs = 1) ?(portfolio = []) ?(should_stop = fun () -> false)
    ?(options = Driver.Options.default) () =
  if jobs < 0 then invalid_arg "Session.create: jobs must be >= 0";
  { s_options = options;
    s_jobs = jobs;
    s_portfolio = portfolio;
    s_should_stop = should_stop;
    s_cache = Hashtbl.create 64;
    s_lock = Mutex.create ();
    s_prepared = 0;
    s_hits = 0 }

let options t = t.s_options
let jobs t = t.s_jobs
let portfolio t = t.s_portfolio
let should_stop t = t.s_should_stop

let locked t f =
  Mutex.lock t.s_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.s_lock) f

let depth_of t (target : Target.t) =
  match target.Target.tg_depth with
  | Some d -> d
  | None -> t.s_options.Driver.Options.search.Driver.Options.depth

let prepare ?metrics t (target : Target.t) =
  let depth = depth_of t target in
  let key = (target.Target.tg_key, target.Target.tg_toplevel, depth) in
  match locked t (fun () -> Hashtbl.find_opt t.s_cache key) with
  | Some prog ->
    locked t (fun () -> t.s_hits <- t.s_hits + 1);
    prog
  | None ->
    (* Prepared outside the lock: concurrent campaign workers always
       prepare *different* targets (a target's slices are sequential),
       so no two domains ever race on one key — and a benign
       double-prepare of the same key would only waste work, both
       results being equal. *)
    let ast =
      match target.Target.tg_source with
      | Target.Text { file; text } -> Minic.Parser.parse_program ?file text
      | Target.Parsed ast -> ast
    in
    let prog = Driver.prepare ?metrics ~toplevel:target.Target.tg_toplevel ~depth ast in
    locked t (fun () ->
        t.s_prepared <- t.s_prepared + 1;
        Hashtbl.replace t.s_cache key prog);
    prog

let prepared t = locked t (fun () -> t.s_prepared)
let prepare_hits t = locked t (fun () -> t.s_hits)
