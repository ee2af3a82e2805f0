(* Multi-domain directed search (paper §2.6: restarts of the outer
   loop are independent, hence embarrassingly parallel).  Each worker
   domain runs a full [Driver.search] over its own [search_ctx] — its
   own PRNG stream, input vector and solver stats — so the domains
   share only the solve cache, the run-budget pool, one cancellation
   atomic and the immutable program.  Telemetry keeps the domains
   apart: each worker traces into a private ring buffer, replayed into
   the main sink in worker order at join, so the merged trace is
   deterministic and the main sink is only ever written from the
   joining domain. *)

module O = Driver.Options

type options = {
  base : Driver.options;
  jobs : int;
  portfolio : Strategy.t list;
}

let options ?(jobs = 1) ?(portfolio = []) base = { base; jobs; portfolio }

type worker_report = {
  w_id : int;
  w_seed : int;
  w_strategy : Strategy.t;
  w_report : Driver.report;
}

type crash = {
  c_worker : int;
  c_seed : int;
  c_reason : string;
  c_respawned : bool;
}

type report = {
  jobs : int;
  merged : Driver.report;
  workers : worker_report list;
  crashes : crash list;
}

(* ---- the domain pool ---------------------------------------------------------- *)

(* OCaml 5.1's runtime admits 128 domains (Max_domains); the caller is
   one of them, so a pool of 128 workers spawns 127. *)
let max_jobs = 128

let workers jobs =
  if jobs < 0 || jobs > max_jobs then
    invalid_arg (Printf.sprintf "Parallel: jobs must be in 0..%d" max_jobs)
  else if jobs = 0 then min max_jobs (Domain.recommended_domain_count ())
  else jobs

let map ~jobs tasks =
  let jobs = workers jobs in
  let n = Array.length tasks in
  let results = Array.make n None in
  let next = Atomic.make 0 in
  let rec work () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      results.(i) <- Some (match tasks.(i) () with v -> Ok v | exception e -> Error e);
      work ()
    end
  in
  (* The caller is a worker too: [jobs = 1] spawns nothing. A failed
     spawn still joins the domains already started (they drain the
     counter) before it re-raises. *)
  let spawned = ref [] in
  (try
     for _ = 2 to min jobs n do
       spawned := Domain.spawn work :: !spawned
     done
   with e ->
     List.iter Domain.join !spawned;
     raise e);
  work ();
  List.iter Domain.join !spawned;
  Array.map Option.get results

(* ---- the parallel search ------------------------------------------------------- *)

(* Worker 0 inherits the base seed (so a one-worker run replays the
   sequential search exactly); the rest get a splitmix-derived stream
   that is a pure function of (base seed, worker index). *)
let worker_seeds ~base_seed n =
  let rng = Dart_util.Prng.create base_seed in
  Array.init n (fun i ->
      if i = 0 then base_seed else Int64.to_int (Dart_util.Prng.next_int64 rng))

let worker_strategy t i =
  match t.portfolio with
  | [] -> t.base.O.search.O.strategy
  | p -> List.nth p (i mod List.length p)

let sum_stats (per_worker : Solver.stats list) =
  let s = Solver.create_stats () in
  List.iter (fun w -> Solver.add_stats ~into:s w) per_worker;
  s

let merge (reports : Driver.report list) : Driver.report =
  if reports = [] then invalid_arg "Parallel.merge: empty report list";
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 reports in
  let forall f = List.for_all f reports in
  (* Branch-direction coverage: union of the per-worker sets, sorted so
     the merged report is deterministic regardless of worker order. *)
  let coverage : (string * int * bool, unit) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (fun (r : Driver.report) ->
      List.iter (fun site -> Hashtbl.replace coverage site ()) r.Driver.coverage_sites)
    reports;
  let coverage_sites =
    List.sort compare (Hashtbl.fold (fun site () acc -> site :: acc) coverage [])
  in
  (* Bugs: dedupe by (site_fn, site_pc, fault) and order by that key,
     so the merged bug *set* does not depend on which worker raced to a
     shared defect first. *)
  let bug_sites : (string * int * Machine.fault, Driver.bug) Hashtbl.t =
    Hashtbl.create 16
  in
  List.iter
    (fun (r : Driver.report) ->
      List.iter
        (fun (b : Driver.bug) ->
          let key = Driver.bug_key b in
          match Hashtbl.find_opt bug_sites key with
          | None -> Hashtbl.replace bug_sites key b
          | Some prev ->
            (* Keep the cheapest witness for a deterministic merge. *)
            if b.Driver.bug_run < prev.Driver.bug_run then Hashtbl.replace bug_sites key b)
        r.Driver.bugs)
    reports;
  let bugs =
    Hashtbl.fold (fun _ b acc -> b :: acc) bug_sites []
    |> List.sort (fun a b -> compare (Driver.bug_key a) (Driver.bug_key b))
  in
  let verdict =
    match bugs with
    | b :: _ -> Driver.Bug_found b
    | [] ->
      (* One worker finishing a DFS search with completeness flags
         intact proves no bug exists at this depth, whatever the other
         budget shares managed. Otherwise the most informative partial
         cause wins: an interrupt or an expired time budget explains
         the early stop better than "budget exhausted". *)
      let any v = List.exists (fun (r : Driver.report) -> r.Driver.verdict = v) reports in
      if any Driver.Complete then Driver.Complete
      else if any Driver.Interrupted then Driver.Interrupted
      else if any Driver.Time_exhausted then Driver.Time_exhausted
      else Driver.Budget_exhausted
  in
  (* Phase timings are CPU-time-like under parallelism: the sum over
     workers, not the wall clock of the slowest one. *)
  let metrics = Telemetry.create_metrics () in
  List.iter
    (fun (r : Driver.report) -> Telemetry.add_metrics ~into:metrics r.Driver.metrics)
    reports;
  { Driver.verdict;
    runs = sum (fun r -> r.Driver.runs);
    restarts = sum (fun r -> r.Driver.restarts);
    total_steps = sum (fun r -> r.Driver.total_steps);
    branches_covered = Hashtbl.length coverage;
    coverage_sites;
    paths_explored = sum (fun r -> r.Driver.paths_explored);
    resource_limited = sum (fun r -> r.Driver.resource_limited);
    all_linear = forall (fun r -> r.Driver.all_linear);
    all_locs_definite = forall (fun r -> r.Driver.all_locs_definite);
    solver_stats = sum_stats (List.map (fun r -> r.Driver.solver_stats) reports);
    metrics;
    bugs }

(* Merged stand-in when every worker (and its respawn) died: no
   coverage, no completeness claim, budget spent without an answer. *)
let empty_report () =
  { Driver.verdict = Driver.Budget_exhausted;
    runs = 0;
    restarts = 0;
    total_steps = 0;
    branches_covered = 0;
    coverage_sites = [];
    paths_explored = 0;
    resource_limited = 0;
    all_linear = false;
    all_locs_definite = false;
    solver_stats = Solver.create_stats ();
    metrics = Telemetry.create_metrics ();
    bugs = [] }

let run ?(options = options O.default) (prog : Ram.Instr.program) : report =
  let t = options in
  let n = workers t.jobs in
  (* A lone worker traces straight into the caller's sink and its report
     is the result, with no merge pass: report and trace (field order of
     coverage_sites included) are identical to [Driver.run]. *)
  let lone = n = 1 in
  (* Compile once before spawning: workers on other domains then find
     the shared read-only compiled program in the cache instead of
     racing to build their own. *)
  if t.base.O.exec.Concolic.compile then Machine.precompile prog;
  (* Seeds [0, n): primary workers; seeds [n, 2n): the respawn stream,
     so a supervisor restart is as deterministic as the first spawn. *)
  let seeds = worker_seeds ~base_seed:t.base.O.search.O.seed (2 * n) in
  let stop_on_first_bug = t.base.O.budget.O.stop_on_first_bug in
  let base_sink = t.base.O.telemetry.Telemetry.sink in
  let tracing = Telemetry.enabled base_sink in
  let emit ev = if tracing then Telemetry.emit base_sink ev in
  let fs = t.base.O.fault in
  let deadline = Driver.deadline_of_options t.base in
  let cancel = Atomic.make false in
  (* Cross-worker sharing: one solve cache answers every worker's
     queries, and the run budget is a single CAS-claimed pool — a
     worker that drains its subtree early leaves the rest of the budget
     to the others. A single worker gets the whole budget as a fixed
     share, which keeps it byte-identical to [Driver.run]. *)
  let cache = Solver.Cache.create () in
  let pool = if lone then None else Some (Atomic.make t.base.O.budget.O.max_runs) in
  let worker ~slot ~seed sink () =
    let strategy = worker_strategy t slot in
    let should_stop () =
      (* Crash injection rides the run-boundary poll: the injected
         exception surfaces mid-search exactly where a real defect in
         the search loop would. *)
      Dart_util.Faultsim.crash_if ~key:slot fs Dart_util.Faultsim.Worker_crash;
      Atomic.get cancel
    in
    let ctx =
      Driver.make_ctx ~should_stop ?deadline ?pool
        ~cache:(Solver.Cache.share cache ~worker:slot)
        ~use_breaker:t.base.O.accel.O.use_breaker ~seed
        ~max_runs:t.base.O.budget.O.max_runs ()
    in
    let options =
      { t.base with
        O.search = { t.base.O.search with O.strategy };
        O.telemetry =
          { t.base.O.telemetry with
            Telemetry.sink;
            (* Only a lone worker may own the status file: concurrent
               domains each writing tmp+rename would race on it. The
               CLI already rejects --status with --jobs > 1. *)
            status_path = (if lone then t.base.O.telemetry.Telemetry.status_path else None) } }
    in
    let r = Driver.search ~ctx ~options prog in
    (* First finder flags the others; they drain at their next run
       boundary (the [should_stop] poll in [Driver.search]). *)
    if stop_on_first_bug && r.Driver.bugs <> [] then Atomic.set cancel true;
    { w_id = slot; w_seed = seed; w_strategy = strategy; w_report = r }
  in
  (* Each of several workers traces into a private ring: domains never
     contend on the main sink, and replaying the rings in slot order
     after the pass makes the merged trace deterministic. *)
  let sink () =
    if lone then base_sink
    else if tracing then Telemetry.ring ~capacity:t.base.O.telemetry.Telemetry.worker_buffer
    else Telemetry.null
  in
  let survivors = ref [] in
  let crashes = ref [] in
  (* One pass over [(slot, seed)] attempts on the pool, settled in slot
     order. A worker's report dies with it; a crashed primary is
     respawned once, with its respawn seed, by the next pass. Returns
     the respawn attempts. *)
  let pass ~respawns attempts =
    let attempts = List.map (fun (slot, seed) -> (slot, seed, sink ())) attempts in
    let settle (slot, seed, sink) = function
      | Ok w ->
        if tracing && not lone then begin
          Telemetry.replay sink ~into:base_sink;
          emit (Telemetry.Worker_drain { worker = slot; runs = w.w_report.Driver.runs })
        end;
        survivors := w :: !survivors;
        []
      | Error e ->
        let reason = Printexc.to_string e in
        let respawned = not respawns in
        crashes :=
          { c_worker = slot; c_seed = seed; c_reason = reason; c_respawned = respawned }
          :: !crashes;
        emit (Telemetry.Worker_crash { worker = slot; reason; respawned });
        if not respawned then []
        else begin
          emit (Telemetry.Worker_spawn { worker = slot; seed = seeds.(n + slot) });
          [ (slot, seeds.(n + slot)) ]
        end
    in
    let tasks = List.map (fun (slot, seed, sink) -> worker ~slot ~seed sink) attempts in
    List.concat (List.map2 settle attempts (Array.to_list (map ~jobs:n (Array.of_list tasks))))
  in
  let primaries = List.init n (fun i -> (i, seeds.(i))) in
  if not lone then
    List.iter (fun (worker, seed) -> emit (Telemetry.Worker_spawn { worker; seed })) primaries;
  ignore (pass ~respawns:true (pass ~respawns:false primaries));
  let workers = List.sort (fun a b -> compare a.w_id b.w_id) !survivors in
  let crashes = List.stable_sort (fun a b -> compare a.c_worker b.c_worker) (List.rev !crashes) in
  let merged =
    match List.map (fun w -> w.w_report) workers with
    | [ r ] when lone -> r
    | _ when lone -> empty_report ()
    | reports ->
      let t0 = Telemetry.now () in
      let merged = if reports = [] then empty_report () else merge reports in
      let merge_ns = Int64.sub (Telemetry.now ()) t0 in
      Telemetry.add_phase merged.Driver.metrics Telemetry.Merge merge_ns;
      emit (Telemetry.Phase_total { phase = Telemetry.Merge; dur_ns = merge_ns });
      merged
  in
  if tracing then Telemetry.flush base_sink;
  { jobs = n; merged; workers; crashes }

let report_to_string r =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Driver.report_to_string r.merged);
  Buffer.add_string buf (Printf.sprintf "\njobs: %d" r.jobs);
  List.iter
    (fun w ->
      Buffer.add_string buf
        (Printf.sprintf "\n  worker %d [%s, seed %d]: %s, %d runs, %d paths" w.w_id
           (Strategy.to_string w.w_strategy)
           w.w_seed
           (match w.w_report.Driver.verdict with
            | Driver.Bug_found _ -> "bug"
            | Driver.Complete -> "complete"
            | Driver.Budget_exhausted -> "budget"
            | Driver.Time_exhausted -> "time"
            | Driver.Interrupted -> "interrupted")
           w.w_report.Driver.runs w.w_report.Driver.paths_explored))
    r.workers;
  List.iter
    (fun c ->
      Buffer.add_string buf
        (Printf.sprintf "\n  worker %d crashed [seed %d]: %s%s" c.c_worker c.c_seed
           c.c_reason
           (if c.c_respawned then "; respawned with a fresh seed, budget re-run"
            else "; not respawned, budget share lost")))
    r.crashes;
  Buffer.contents buf
