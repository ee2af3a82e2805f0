(** The one search entry point: [run session target].

    Every caller that used to plumb options, deadlines, contexts and
    telemetry by hand — single-shot [dartc], [dartc campaign], the
    bench harness — now builds a {!Session.t} once, describes what to
    test as a {!Target.t}, and calls {!run}. The engine picks the
    execution shape from the session ([jobs = 1] → one sequential
    {!Driver.search}; [jobs <> 1] → {!Parallel.run}; [`Random] mode →
    {!Random_search.run}) and reproduces the exact plumbing the
    callers used to do inline, so reports and traces are byte-for-byte
    what they were before the API existed. *)

(** What {!run} produced, shaped by the session and mode: a sequential
    directed report, a plain random-testing report, or a parallel
    report carrying the merged view plus per-worker detail. *)
type outcome =
  | Directed_report of Driver.report
  | Random_report of Random_search.report
  | Parallel_report of Parallel.report

val effective_options : Session.t -> Target.t -> Driver.options
(** The session's base options with the target's overrides applied:
    [tg_max_runs] replaces [budget.max_runs] and [tg_sink] the
    telemetry sink. ([tg_depth] acts earlier, at {!Session.prepare}
    time.) This is exactly the options record {!run} searches under —
    campaign checkpointing derives its metadata from it. *)

val run :
  ?mode:[ `Directed | `Random ] ->
  ?resume:Driver.snapshot ->
  ?on_checkpoint:(Driver.snapshot -> unit) ->
  ?checkpoint_every:int ->
  ?metrics:Telemetry.metrics ->
  Session.t ->
  Target.t ->
  outcome
(** Prepare the target through the session's cache (a hit adds no
    [Lower] time; pass [metrics] to fold preparation cost into the
    run's phase totals) and search it under {!effective_options}.

    Telemetry flows into the session options' sink, with the same
    end-of-run bookkeeping the inline callers performed: the random
    path emits its phase totals and flushes; the parallel path folds
    the preparation metrics into the merged report, emits the [Lower]
    phase total and flushes; the sequential path leaves flushing to
    the caller (its sink writes are synchronous), exactly as before.

    [resume] / [on_checkpoint] / [checkpoint_every] thread through to
    {!Driver.search}; they describe one sequential search's state.
    @raise Invalid_argument when they are combined with [`Random] mode
    or a session with [jobs <> 1]. *)

val exit_code : outcome -> int
(** The documented dartc exit status of an outcome: 1 bug found, 0
    clean (complete or budget-exhausted), 3 time-exhausted or
    interrupted. *)
