(** Multi-domain directed search.

    The paper's outer loop (§2.6, Figure 2) restarts the directed
    search from fresh random seed points whenever incompleteness forces
    a restart; restarts are independent, hence embarrassingly parallel.
    [run] spreads the run budget across [jobs] worker domains, each
    executing an independent {!Driver.search} with its own PRNG stream,
    input vector and solver stats — optionally with a different
    {!Strategy.t} drawn from a portfolio — and merges the worker
    reports. The workers share one solve cache ({!Solver.Cache.share})
    and draw their runs from one pooled budget.

    Determinism contract:
    - [jobs = 1] reproduces {!Driver.run} bit for bit (same seed, same
      budget, no merge pass).
    - For any [jobs = N], each worker starts from [(base seed, worker
      index)]; the runs it draws from the pool, and the models that
      peers' cache entries hand it, depend on timing. The merged *set* of
      deduped bugs, the coverage union and the verdict constructor are
      reproducible across runs on no-bug workloads;
      with [stop_on_first_bug] cancellation, late workers may drain at
      different run counts across executions, but any bug reported is
      always a real, replayable witness and single-defect workloads
      yield the same verdict and deduped bug set as [jobs = 1]. *)

(** {1 The domain pool} *)

val max_jobs : int
(** 128: the OCaml runtime's domain limit, the calling domain included. *)

val workers : int -> int
(** [workers jobs] is the worker count a pool of [jobs] runs with:
    [jobs] itself, or [Domain.recommended_domain_count ()] (at most
    {!max_jobs}) for [jobs = 0].
    @raise Invalid_argument if [jobs] is outside [0..max_jobs]. *)

val map : jobs:int -> (unit -> 'a) array -> ('a, exn) result array
(** [map ~jobs tasks] runs every task once and returns the results in
    task order. Workers take tasks from one atomic counter, and the
    calling domain is one of them: [jobs = 1] spawns no domain, and
    [jobs = k] spawns at most [min k (length tasks) - 1]. A task that
    raises yields [Error] with its exception, so no exception escapes
    a domain and every spawned domain is joined before [map] returns.
    This is the only place the library spawns domains.
    @raise Invalid_argument as {!workers}, before spawning anything. *)

(** {1 The parallel search} *)

type options = {
  base : Driver.options;
      (** [base.budget.max_runs] is the {e total} budget, pooled
          across workers; [base.search.seed] seeds worker 0 directly
          and derives the other workers' streams.
          [base.telemetry.sink] receives the merged trace: with more
          than one worker each domain traces into a private ring of
          [base.telemetry.worker_buffer] events, replayed into the main
          sink in worker order at join (bracketed by [Worker_spawn] /
          [Worker_drain] events). *)
  jobs : int; (* 0 = [Domain.recommended_domain_count ()]; see {!workers} *)
  portfolio : Strategy.t list;
      (** Cycled across workers ([worker i] gets [i mod length]);
          empty = every worker uses [base.search.strategy]. *)
}

val options : ?jobs:int -> ?portfolio:Strategy.t list -> Driver.options -> options
(** [options base] defaults to [jobs = 1] and an empty portfolio. *)

type worker_report = {
  w_id : int;
  w_seed : int;
  w_strategy : Strategy.t;
  w_report : Driver.report;
}

type crash = {
  c_worker : int; (* worker slot that died *)
  c_seed : int; (* the seed of the attempt that crashed *)
  c_reason : string; (* printed exception *)
  c_respawned : bool;
      (* [true]: the supervisor restarted the slot once with a fresh
         derived seed, drawing on the same budget pool; [false]: the
         respawn itself crashed too *)
}

type report = {
  jobs : int; (* actual worker count after resolving [jobs = 0] *)
  merged : Driver.report;
  workers : worker_report list;
      (* surviving workers (respawns included), in worker-id order *)
  crashes : crash list; (* in worker-id order; [] on a healthy run *)
}

val worker_seeds : base_seed:int -> int -> int array
(** Per-worker PRNG seeds: worker 0 gets [base_seed] itself, the rest
    get splitmix-derived values — a pure function of the base seed. *)

val merge : Driver.report list -> Driver.report
(** Merge worker reports: bugs deduped by {!Driver.bug_key} (keeping
    the cheapest witness, ordered by key), branch-direction coverage
    unioned and sorted, run/step/restart/path counters, solver stats
    and phase metrics summed (so merged timings read as CPU time, not
    wall clock), completeness flags conjoined. The verdict is
    [Bug_found] if any worker found a bug, else [Complete] if any
    worker's DFS search finished exhaustively, else the most
    informative partial cause across workers ([Interrupted], then
    [Time_exhausted], then [Budget_exhausted]).
    @raise Invalid_argument on the empty list. *)

val run : ?options:options -> Ram.Instr.program -> report
(** Run the parallel search on a prepared program (entry point
    {!Driver_gen.wrapper_name}). With [stop_on_first_bug], the first
    worker to find a bug flags a shared atomic and the others drain at
    their next run boundary. [base.budget.time_budget_ns] is turned
    into one absolute deadline shared by every worker.

    Every [jobs] takes one path: a primary pass of the workers on the
    {!map} pool, then one respawn pass over the crashed slots. A worker
    whose search raises never takes the run down — the failure is
    recorded as a {!crash} (and a [Telemetry.Worker_crash] event), the
    surviving workers' rings are replayed and the sink flushed. Each
    crashed slot is respawned exactly once with a deterministically
    derived fresh seed, drawing on the same budget pool; if the respawn
    crashes too, the slot is abandoned and the merge proceeds over the
    survivors (an all-crashed run merges to an empty
    [Budget_exhausted] report). A lone worker differs only in its sink
    (the caller's own, not a ring) and in skipping the merge.
    @raise Invalid_argument as {!workers}. *)

val report_to_string : report -> string
(** The merged report followed by a one-line per-worker summary. *)
