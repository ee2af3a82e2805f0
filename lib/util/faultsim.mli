(** Deterministic fault injection for resilience testing.

    A plan arms a set of rules over injection {e points} scattered
    through the search stack (solver deadlines, parallel workers and
    campaign slices, the machine's step budget, observability writes).
    Each rule fires on the probes of its point, optionally narrowed to
    one probe key, by one of two triggers:
    - {e nth occurrence}: the rule fires once, on a chosen occurrence
      of its probe, so the failure paths of a supervisor can be
      exercised by ordinary unit tests instead of flaky timing-dependent
      ones;
    - {e rate}: the rule fires on each probe with a fixed probability,
      drawn from the rule's private seeded stream, so a recurring fault
      schedule (a chaos soak) is reproducible from its seed.

    The disabled plan ({!off}, the default everywhere) is a constant:
    probing it is a single pattern match and allocates nothing, keeping
    the production hot path at zero cost. *)

type point =
  | Solver_deadline  (** force a per-query solver deadline overrun (=> [Unknown]) *)
  | Worker_crash  (** raise inside a parallel worker body *)
  | Machine_step_limit  (** force a [Step_limit] fault on a finished run *)
  | Io_error  (** fail an observability write (status/checkpoint/report) *)

type t

val off : t
(** The disabled plan: {!fire} is always [false], at zero cost. *)

val is_on : t -> bool

type trigger =
  | Nth of int  (** fire on this (1-based) occurrence of a matching probe, once *)
  | Rate of int
      (** fire on any matching probe with this probability in basis points
          (1..10000, so 500 = 5%); never exhausts *)

val make : ?seed:int -> (point * int option * trigger) list -> t
(** [make ~seed rules] arms one rule per triple [(point, key, trigger)].
    [key] narrows the rule to probes carrying the same [~key] (e.g. a
    worker id or a campaign target index); [None] matches any probe of
    the point. Each [Rate] rule draws from its own splitmix stream,
    seeded left to right from a master stream over [seed] (default 0),
    so adding a rule never perturbs the draws of the others. Probing is
    serialized by a mutex, so plans are safe to share across domains.

    Raises [Invalid_argument] on an occurrence below 1 or a rate
    outside 1..10000. *)

val arms : t -> point -> bool
(** Whether any rule of the plan names [point]. *)

val of_spec : ?seed:int -> string -> (t, string) result
(** Parse a plan from a comma-separated spec, one rule per entry, in
    either of two forms:

    {v point[@key][:nth]  e.g.  solver_deadline:3,worker_crash@1:2
point=RATE          e.g.  worker_crash=0.05,io_error=0.02 v}

    [point] is [solver_deadline], [worker_crash], [machine_step_limit]
    or [io_error]. The first form is an {!Nth} rule: [@key] narrows to a
    probe key and [:nth] picks the firing occurrence (default 1); [:?]
    draws the occurrence deterministically from [seed] (uniform in
    1..8), so the same seed always injects at the same place and two
    seeds exercise two schedules. The second form is a key-blind {!Rate}
    rule: [RATE] is a decimal probability in (0, 1], resolved to basis
    points (so the finest grain is 0.0001). One spec may mix both forms;
    the [:?] draws and the rate streams come from separate streams over
    [seed], so one-shot entries never move the rate schedules and rate
    entries never move the [:?] draws. *)

val fire : ?key:int -> t -> point -> bool
(** Record one occurrence of [point] (with optional [key]) and report
    whether an armed rule fires now. Every matching rule counts the
    occurrence or draws, whether or not another rule fires; an {!Nth}
    rule that has already fired never fires again. *)

exception Injected of string
(** The exception raised by injected crashes, so supervisors (and
    tests) can tell an injected fault from a real one in messages. *)

val crash_if : ?key:int -> t -> point -> unit
(** Probe [point] as {!fire} does and raise {!Injected}, attributed to
    [point], if a rule fires. *)
