(** Front door of the linear integer constraint solver (the role
    lp_solve plays in the paper, §3.3).

    Decides satisfiability of a conjunction of {!Symbolic.Constr.t}
    atoms over 32-bit-bounded integer variables and produces a model.
    Pipeline: unit-pivot Gaussian elimination of equalities, interval
    absorption of univariate inequalities (fast path), then rational
    simplex with branch-and-bound for anything multivariate, with
    case-splitting for disequalities. Every model returned is verified
    against the input constraints before being handed back. *)

module Cache : sig
  (** Memoisation of solver verdicts, keyed on the canonical form of a
      constraint set. A solo search owns a private cache; a parallel
      search creates one and gives each worker a handle on it
      ({!share}), so every worker's queries are answered by verdicts
      any worker published. One mutex guards the table. Each entry
      records the worker that published it (the first publisher of a
      key wins). *)

  type verdict =
    | Sat of (Symbolic.Linexpr.var * Zarith_lite.Zint.t) list
    | Unsat

  module Key : sig
    type t = Symbolic.Constr.t list

    val equal : t -> t -> bool
    val hash : t -> int
  end

  type keyed = {
    key : Key.t;
    back : Symbolic.Linexpr.var array; (* canonical index -> original variable *)
    fwd : (Symbolic.Linexpr.var, int) Hashtbl.t; (* original variable -> index *)
  }
  (** A canonical key together with the variable renaming that produced
      it, needed to map stored models back to the query's variables. *)

  type t
  (** A handle on a table, carrying the id of the worker that
      publishes through it. *)

  val create : unit -> t
  (** A fresh, empty table; the handle publishes as worker 0. *)

  val share : t -> worker:int -> t
  (** Another handle on the same table, publishing as [worker]. *)

  val worker : t -> int

  val canonical : Symbolic.Constr.t list -> keyed
  (** Canonical key of a conjunction: insensitive to atom order,
      duplicates, scaling, sign and strict/non-strict spelling
      (normalized like [Problem.tighten]) and to variable naming
      (renamed to first-occurrence indices), so re-issues of one filter
      shape across runs and input generations share an entry. Every
      rewrite preserves the solution set, so cached models remain valid
      for any spelling. *)

  val find : t -> keyed -> (verdict * int) option
  (** Stored verdict, with Sat models mapped back to the query's own
      variables, and the id of the worker that published it. Model
      variables that only occurred in vacuously-true atoms are omitted
      (they are unconstrained). *)

  val add : t -> keyed -> verdict -> unit
  (** Publish a verdict as [worker t]; a no-op when the key already has
      one. *)

  val length : t -> int
end

module Breaker = Breaker
(** Re-export of the per-site circuit breaker (see [breaker.mli]),
    reachable as [Solver.Breaker]. *)

type result =
  | Sat of (Symbolic.Linexpr.var * Zarith_lite.Zint.t) list
      (** Model covering every variable occurring in the input. *)
  | Unsat
  | Unknown (* resource limits hit; callers must treat conservatively *)

type stats
(** Mutable solver counters. Abstract so new counters can be added
    without breaking every consumer: read through the named accessors
    or {!to_assoc}, fabricate/serialise through {!of_assoc}, merge with
    {!add_stats}. *)

val create_stats : unit -> stats

(** {2 Accessors} *)

val queries : stats -> int
val sat_count : stats -> int
val unsat_count : stats -> int
val unknown_count : stats -> int
val fast_path : stats -> int (* queries discharged without simplex *)
val simplex_queries : stats -> int
val ne_splits : stats -> int
val cache_hits : stats -> int (* queries answered from the solve cache *)
val cache_misses : stats -> int (* cache-enabled queries that hit the solver *)
val constraints_sliced_away : stats -> int
(** Prefix constraints dropped by independence slicing before the query
    reached the solver. *)

val deadline_overruns : stats -> int
(** Queries aborted to [Unknown] because their per-query deadline
    expired (see [solve]'s [deadline]). *)

val incremental_hits : stats -> int
(** Always 0. The prepared-state memo it counted is gone; the accessor
    stays because the repository benchmark still reports it. *)

val pops_saved : stats -> int
(** Assertion-stack levels retained across consecutive incremental
    queries (prefix atoms not re-normalized). *)

val shared_hits : stats -> int
(** Cache hits answered by an entry another worker published in a
    shared {!Cache} (a subset of {!cache_hits}). *)

val breaker_opens : stats -> int
(** Circuit-breaker transitions into the open state (see {!Breaker}). *)

val breaker_skips : stats -> int
(** Queries short-circuited to Unknown by an open circuit breaker;
    these never reach the solver and are not counted in {!queries}. *)

val to_assoc : stats -> (string * int) list
(** Every report-visible counter as [(name, value)], stable declaration
    order; the single source of truth for report printing, bench JSON
    and merge code, so a new counter shows up everywhere at once. The
    acceleration meters ({!pops_saved}, {!shared_hits}) and the
    breaker meters ({!breaker_opens},
    {!breaker_skips}) are deliberately excluded: they measure work
    avoided, which resumed or replayed searches legitimately repeat
    differently, so they must not feed resume-identity comparisons. *)

val of_assoc : (string * int) list -> stats
(** Inverse of {!to_assoc}; missing keys default to 0, unknown keys are
    rejected with [Invalid_argument]. *)

val add_stats : into:stats -> stats -> unit
(** Counter-wise accumulation (used by [Parallel.sum_stats]). *)

(** {2 Recorders for the acceleration layer (see [Solve_pc])} *)

val record_cache_hit : stats -> unit
val record_cache_miss : stats -> unit
val record_sliced : stats -> int -> unit
val record_shared_hit : stats -> unit
val record_breaker_open : stats -> unit
val record_breaker_skip : stats -> unit

val solve :
  ?stats:stats ->
  ?prefer:(Symbolic.Linexpr.var -> Zarith_lite.Zint.t option) ->
  ?use_simplex:bool ->
  ?deadline:(unit -> bool) ->
  Symbolic.Constr.t list ->
  result
(** [solve cs] finds an integer model of the conjunction [cs].
    [prefer] suggests values for under-constrained variables (the
    directed search passes the previous run's inputs, matching the
    paper's [IM + IM'] update). [use_simplex:false] disables the
    simplex/branch-and-bound stage (ablation A2): multivariate systems
    then come back [Unknown]. [deadline] is polled at every sub-query
    and branch-and-bound node; once it returns [true] the query
    degrades to [Unknown] (counted in {!deadline_overruns}) instead of
    running unbounded simplex work — callers already treat [Unknown]
    conservatively, so an overrun can never unsoundly prune a path. *)

module Incr : sig
  (** Incremental push/pop solving. A context keeps an assertion stack
      over the query's shared prefix, each level holding the
      normalized constraint lists of everything below it. {!solve}
      pops only the stack suffix that differs from the previous query
      and pushes the new atoms, so a shared prefix is normalized once.
      Results are identical to the one-shot {!val:solve} by
      construction, because both routes run the same core on the same
      lists. The stack holds only normalized atoms, never solver
      state, so a deadline overrun cannot leak stale state into the
      next query. One context per worker: contexts are not
      thread-safe and never cross domains. *)

  type t

  val create : unit -> t

  val solve :
    t ->
    ?stats:stats ->
    ?prefer:(Symbolic.Linexpr.var -> Zarith_lite.Zint.t option) ->
    ?use_simplex:bool ->
    ?deadline:(unit -> bool) ->
    pivot:Symbolic.Constr.t ->
    prefix:Symbolic.Constr.t list ->
    domains:Symbolic.Constr.t list ->
    unit ->
    result
  (** Solve [pivot :: prefix @ domains] — the negated branch pivot, the
      kept path-constraint prefix, and the input-domain bounds — with
      the prefix asserted through the stack. Equivalent to
      [solve (pivot :: prefix @ domains)]. *)
end

val check_model : Symbolic.Constr.t list -> (Symbolic.Linexpr.var * Zarith_lite.Zint.t) list -> bool
(** [check_model cs model] verifies that [model] satisfies [cs]. *)
