(** Versioned on-disk serialization of {!Driver.snapshot}.

    A checkpoint file is a self-describing text format (one record per
    line, [dart-checkpoint v3] magic) carrying the search meta
    (seed/depth/strategy/run budget — everything the snapshot's
    determinism depends on) plus the snapshot itself. Writes are atomic
    (temp file + rename in the target directory), so a SIGKILL mid-save
    leaves the previous checkpoint intact; loads validate the magic,
    the version and every field (including that every solver counter is
    known and appears once), and {!check_meta} refuses to resume a
    snapshot under options it was not taken under — resuming with a
    different seed or strategy would silently diverge from the
    interrupted search instead of continuing it. The run budget is
    recorded but not compared: it bounds the trajectory rather than
    shaping it, so resuming with a larger [--max-runs] extends an
    exhausted search.

    The solve cache is deliberately not checkpointed (it is a pure
    accelerator and can be arbitrarily large); a resumed search always
    starts cold. Because
    the solver prefers current IM values when picking among equally
    valid models, a warm cache can return a model a fresh solve would
    not, so a resumed search with caching enabled may take a different
    — equally valid — trajectory after a restart while still converging
    to the same coverage. With [--no-cache] (or on restart-free
    searches) resume is exact: every counter of the resumed run equals
    the uninterrupted one. Incremental solving ({!Solver.Incr}) is
    result-exact, so it never perturbs resume. *)

type meta = {
  m_seed : int;
  m_depth : int;
  m_max_runs : int;
  m_strategy : Strategy.t;
}

val meta_of_options : Driver.options -> meta

val check_meta : expected:meta -> found:meta -> (unit, string) result
(** [Error] names the first mismatching field (seed, depth or
    strategy; [m_max_runs] is informational only). *)

val save : path:string -> meta:meta -> Driver.snapshot -> unit
(** Atomic: writes [path ^ ".tmp"], then renames over [path].
    @raise Sys_error when the directory is not writable. *)

val load : path:string -> (meta * Driver.snapshot, string) result
(** [Error] describes the first syntax or schema violation (including a
    version this build does not understand). *)

val to_string : meta -> Driver.snapshot -> string
val of_string : string -> (meta * Driver.snapshot, string) result
(** The codec itself, exposed for tests (and [load]/[save] are
    [of_string]/[to_string] plus file I/O). [of_string] recognizes the
    {!Campaign} checkpoint magic and fails with a message naming
    [dartc campaign --resume], so feeding the wrong kind of checkpoint
    to [--resume] is a usage error, not a parse mystery. *)

(** {1 Records shared with the {!Campaign} checkpoint} *)

type format =
  | Search (* [dart-checkpoint]: one search's snapshot *)
  | Campaign (* [dart-campaign]: a campaign's finished targets *)

val write_magic : Buffer.t -> format -> version:int -> unit

val read_magic : Dart_util.Persist.Lines.reader -> format -> version:int -> unit
(** Checks the magic line. Raises {!Dart_util.Persist.Bad} on another
    version, and on the sibling format's magic with a message naming the
    command that resumes it. *)

val write_cover : tag:string -> Buffer.t -> string * int * bool -> unit
val read_cover : tag:string -> Dart_util.Persist.Lines.reader -> string * int * bool
(** A covered branch direction [(fn, pc, dir)] as a [tag] record. *)

val write_bug : Buffer.t -> Driver.bug -> unit
val read_bug : Dart_util.Persist.Lines.reader -> Driver.bug
(** A [bug] record: the fault, its site, the run and the input vector
    that replays it. *)
