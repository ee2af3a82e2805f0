(** A unit of testable work: one entry function of one program, plus
    the per-target overrides of the session-wide budgets.

    {!Session.t} holds the long-lived engine state (base options,
    compiled-program cache, telemetry); a [Target.t] names what to
    test. Single-shot [dartc] builds exactly one target; [dartc
    campaign] builds one per discovered library function and reuses
    the same session across all of them, so the compiled program,
    option plumbing and telemetry sink are shared instead of
    re-created per entry point. *)

(** The program under test, in whichever form the caller already has.
    Both are prepared (driver generation, typecheck, lowering) through
    the session's compiled-program cache. *)
type source =
  | Text of { file : string option; text : string } (* MiniC source *)
  | Parsed of Minic.Ast.program

type t = {
  tg_source : source;
  tg_toplevel : string; (* entry function under test *)
  tg_depth : int option; (* overrides [options.search.depth] *)
  tg_max_runs : int option; (* overrides [options.budget.max_runs] *)
  tg_sink : Telemetry.sink option;
      (* overrides [options.telemetry.sink] for this target's search.
         The campaign uses private per-slice rings here so worker
         domains never contend on the session's main sink. *)
  tg_breaker : Solver.Breaker.t option;
      (* caller-owned solver circuit breaker for this target's search;
         the campaign threads one per target across its slices so
         open sites stay open between scheduler rounds. [None] lets
         the engine create (or omit) one per [options.accel]. *)
  tg_key : string;
      (* preparation-cache identity of [tg_source]: equal keys mean
         equal source. Computed by {!make}. *)
}

val make :
  ?depth:int ->
  ?max_runs:int ->
  ?sink:Telemetry.sink ->
  ?breaker:Solver.Breaker.t ->
  toplevel:string ->
  source ->
  t
(** Every omitted override falls back to the session's base options at
    {!Engine.run} time. *)

val of_text : ?file:string -> toplevel:string -> string -> t
(** [make ~toplevel (Text …)] with no overrides. *)

val of_ast : toplevel:string -> Minic.Ast.program -> t
