(* Live status snapshots: a single flat JSON object, atomically
   rewritten (Persist.write_atomic, like Checkpoint.save) so a
   concurrent [dartc watch] always reads a complete object. Schema v1
   is intentionally integer-only: it is a Persist.Json flat object,
   which has no float production. *)

type mode =
  | Run
  | Campaign

let mode_to_string = function
  | Run -> "run"
  | Campaign -> "campaign"

let mode_of_string = function
  | "run" -> Some Run
  | "campaign" -> Some Campaign
  | _ -> None

type t = {
  st_mode : mode;
  st_elapsed_ns : int64;
  st_budget_ns : int64 option; (* global time budget; omitted when none *)
  st_runs : int;
  st_max_runs : int;
  st_execs_per_sec : int;
  st_bugs : int;
  st_covered : int; (* distinct user branch directions *)
  st_frontier : int; (* sites with exactly one direction seen *)
  st_done : int; (* retired targets (0/1 in single-target runs) *)
  st_active : int;
  st_remaining : int;
  st_round : int;
  st_solve_p50_ns : int64;
  st_solve_p99_ns : int64;
}

let schema = "dart-status"
let version = 1

module J = Dart_util.Persist.Json

let to_json st =
  let int v = J.Int (Int64.of_int v) in
  J.flat_object
    ([ ("schema", J.Str schema);
       ("version", int version);
       ("mode", J.Str (mode_to_string st.st_mode));
       ("elapsed_ns", J.Int st.st_elapsed_ns) ]
    @ (match st.st_budget_ns with None -> [] | Some ns -> [ ("budget_ns", J.Int ns) ])
    @ [ ("runs", int st.st_runs);
        ("max_runs", int st.st_max_runs);
        ("execs_per_sec", int st.st_execs_per_sec);
        ("bugs", int st.st_bugs);
        ("covered", int st.st_covered);
        ("frontier", int st.st_frontier);
        ("done", int st.st_done);
        ("active", int st.st_active);
        ("remaining", int st.st_remaining);
        ("round", int st.st_round);
        ("solve_p50_ns", J.Int st.st_solve_p50_ns);
        ("solve_p99_ns", J.Int st.st_solve_p99_ns) ])

let of_json line =
  let bad = Dart_util.Persist.bad in
  try
    let fields = J.parse_flat line in
    let str = J.str fields and int = J.int fields and i64 = J.i64 fields in
    if str "schema" <> schema then bad "not a %s file (schema %S)" schema (str "schema");
    if int "version" <> version then bad "unsupported status version %d" (int "version");
    let st_mode =
      match mode_of_string (str "mode") with Some m -> m | None -> bad "bad mode %S" (str "mode")
    in
    Ok
      { st_mode;
        st_elapsed_ns = i64 "elapsed_ns";
        st_budget_ns =
          (match List.assoc_opt "budget_ns" fields with Some (J.Int v) -> Some v | _ -> None);
        st_runs = int "runs";
        st_max_runs = int "max_runs";
        st_execs_per_sec = int "execs_per_sec";
        st_bugs = int "bugs";
        st_covered = int "covered";
        st_frontier = int "frontier";
        st_done = int "done";
        st_active = int "active";
        st_remaining = int "remaining";
        st_round = int "round";
        st_solve_p50_ns = i64 "solve_p50_ns";
        st_solve_p99_ns = i64 "solve_p99_ns" }
  with Dart_util.Persist.Bad msg -> Error msg

let write ?fault ~path st = Dart_util.Persist.write_atomic ?fault ~path (to_json st ^ "\n")

(* Transient conditions resolve by waiting for the writer's next atomic
   rename: the file is momentarily absent (deleted, not yet created) or
   empty. Malformed content never self-heals — renames are atomic, so a
   complete read that fails to parse means the file is not (or is no
   longer) a status file. *)
let read_classified ~path =
  match Dart_util.Persist.read_file path with
  | exception Sys_error msg -> Error (`Transient msg)
  | exception End_of_file -> Error (`Transient "truncated status file")
  | contents ->
    let contents = String.trim contents in
    if contents = "" then Error (`Transient "empty status file")
    else Result.map_error (fun msg -> `Malformed msg) (of_json contents)

let read ~path =
  match read_classified ~path with
  | Ok st -> Ok st
  | Error (`Transient msg) | Error (`Malformed msg) -> Error msg

(* Deterministic terminal rendering: every line is a pure function of
   the snapshot, so [dartc watch --once] output can be golden-tested. *)
let render st =
  let buf = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let pct a b = if b <= 0 then 0 else 100 * a / b in
  line "DART %s status" (mode_to_string st.st_mode);
  (match st.st_budget_ns with
   | Some budget ->
     line "  elapsed    %s / %s (%d%%)"
       (Telemetry.ns_to_string st.st_elapsed_ns)
       (Telemetry.ns_to_string budget)
       (pct (Int64.to_int (Int64.div st.st_elapsed_ns 1_000_000L))
          (Int64.to_int (Int64.div budget 1_000_000L)))
   | None -> line "  elapsed    %s" (Telemetry.ns_to_string st.st_elapsed_ns));
  line "  runs       %d / %d (%d%%), %d execs/sec" st.st_runs st.st_max_runs
    (pct st.st_runs st.st_max_runs)
    st.st_execs_per_sec;
  (match st.st_mode with
   | Campaign ->
     line "  targets    %d done, %d active, %d remaining (round %d)" st.st_done
       st.st_active st.st_remaining st.st_round
   | Run -> ());
  line "  coverage   %d branch directions, %d frontier sites" st.st_covered st.st_frontier;
  line "  bugs       %d" st.st_bugs;
  line "  solve      p50 <=%s  p99 <=%s"
    (Telemetry.ns_to_string st.st_solve_p50_ns)
    (Telemetry.ns_to_string st.st_solve_p99_ns);
  Buffer.contents buf
