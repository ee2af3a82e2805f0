(** Branch-coverage accounting.

    The paper motivates automated unit testing by coverage ("its role
    is precisely to ... check all corner cases, and provide 100% code
    coverage", §1). A coverage report relates the branch directions a
    search exercised to the program's totals, per function.

    This module owns the one per-site direction table: every view that
    asks "which directions of this branch site ran" — the coverage
    report, the source-level explorer ({!Cover_report}), trace
    summaries ({!Telemetry.summarize}) and the frontier counts behind
    status snapshots and campaign scheduling — reads it from here. *)

(** {1 Per-site directions} *)

type table
(** Branch site [(fn, pc)] to [(taken, fall_through)]: which machine
    directions of the site have run. *)

val create : unit -> table

val add : table -> string * int * bool -> unit
(** Record that direction [dir] of site [(fn, pc)] ran. *)

val to_list : table -> ((string * int) * (bool * bool)) list
(** Recorded sites, sorted by site. *)

val frontier_count : (string * int * bool) list -> int
(** Sites with exactly one direction in the list — candidates the
    directed search can still force. *)

(** {1 The report} *)

type entry = {
  cov_fn : string;
  cov_sites : int; (* conditional instructions in the function *)
  cov_directions : int; (* of the 2 * cov_sites possible outcomes, how many ran *)
  cov_full : int; (* sites with both directions exercised *)
}

type t = {
  entries : entry list; (* sorted by function name; only functions with
                           branch sites, driver-internal ones excluded *)
  total_sites : int;
  total_directions : int;
}

val is_driver_function : string -> bool
(** Whether [name] is part of the synthesized test driver (the
    [__dart_*] wrapper and argument functions). Driver-internal branch
    sites are excluded from every coverage number — both here and in
    {!Driver.report.branches_covered} — so the two stay consistent. *)

val sites :
  Ram.Instr.program ->
  covered:(string * int * bool) list ->
  (string * int * Minic.Loc.t * (bool * bool)) list
(** The walk behind every coverage view: each [Iif] site
    [(fn, pc, loc, directions)] of every non-driver function, in no
    particular order. [covered] is the list of (function, pc,
    direction) triples a search reports. *)

val of_sites : (string * (bool * bool)) list -> t
(** Per-function totals of [(fn, directions)] site records, one record
    per site. *)

val compute : Ram.Instr.program -> covered:(string * int * bool) list -> t
(** [of_sites] over [sites]. *)

val percent : t -> float
(** Covered directions over all possible ones, 0..100. *)

val to_string : t -> string
