(* The parallel orchestrator: merge-layer algebra on fabricated
   reports, the jobs=1 determinism contract against Driver.run, bug-set
   agreement at jobs=4, the strategy candidate set, and the
   Random_search budget boundary. *)

module Strategy = Dart.Strategy

let loc line = { Minic.Loc.file = "t.mc"; line; col = 1 }

let site fn pc line = { Machine.site_fn = fn; site_pc = pc; site_loc = loc line }

let bug ?(fault = Machine.Abort) ?(run = 1) fn pc =
  { Dart.Driver.bug_fault = fault;
    bug_site = site fn pc 1;
    bug_run = run;
    bug_inputs = [ (0, 7) ] }

let stats ~queries ~sat = Solver.of_assoc [ ("queries", queries); ("sat", sat) ]

let fake_report ?(verdict = Dart.Driver.Budget_exhausted) ?(runs = 10) ?(restarts = 1)
    ?(steps = 100) ?(coverage = []) ?(paths = 5) ?(all_linear = true)
    ?(all_locs_definite = true) ?(stats = Solver.create_stats ()) ?(bugs = []) () =
  { Dart.Driver.verdict;
    runs;
    restarts;
    total_steps = steps;
    branches_covered = List.length coverage;
    coverage_sites = coverage;
    paths_explored = paths;
    resource_limited = 0;
    all_linear;
    all_locs_definite;
    solver_stats = stats;
    metrics = Dart.Telemetry.create_metrics ();
    bugs }

(* ---- merge layer ---------------------------------------------------------- *)

let test_merge_bug_dedup () =
  let b1 = bug ~run:5 "f" 3 in
  let b2 = bug ~run:2 "f" 3 (* same defect, cheaper witness *) in
  let b3 = bug ~run:9 "g" 1 in
  let b4 = bug ~fault:Machine.Null_deref ~run:4 "f" 3 (* same site, different fault *) in
  let m =
    Dart.Parallel.merge
      [ fake_report ~bugs:[ b1 ] (); fake_report ~bugs:[ b2; b3 ] ();
        fake_report ~bugs:[ b4 ] () ]
  in
  Alcotest.(check int) "three distinct bugs" 3 (List.length m.Dart.Driver.bugs);
  let keys = List.map Dart.Driver.bug_key m.Dart.Driver.bugs in
  Alcotest.(check bool) "keys sorted" true (keys = List.sort compare keys);
  let kept =
    List.find (fun b -> Dart.Driver.bug_key b = ("f", 3, Machine.Abort)) m.Dart.Driver.bugs
  in
  Alcotest.(check int) "cheapest witness kept" 2 kept.Dart.Driver.bug_run;
  (match m.Dart.Driver.verdict with
   | Dart.Driver.Bug_found b ->
     Alcotest.(check bool) "representative is min-key bug" true
       (Dart.Driver.bug_key b = List.hd keys)
   | _ -> Alcotest.fail "expected Bug_found")

let test_merge_coverage_union () =
  let c1 = [ ("f", 0, true); ("f", 0, false); ("f", 2, true) ] in
  let c2 = [ ("f", 0, true); ("g", 1, true) ] in
  let m = Dart.Parallel.merge [ fake_report ~coverage:c1 (); fake_report ~coverage:c2 () ] in
  Alcotest.(check int) "union size" 4 m.Dart.Driver.branches_covered;
  Alcotest.(check bool) "sites sorted" true
    (m.Dart.Driver.coverage_sites = List.sort compare m.Dart.Driver.coverage_sites);
  Alcotest.(check int) "sites length matches" 4 (List.length m.Dart.Driver.coverage_sites)

let test_merge_counter_sums () =
  let r1 =
    fake_report ~runs:10 ~restarts:1 ~steps:100 ~paths:5 ~stats:(stats ~queries:7 ~sat:3) ()
  in
  let r2 =
    fake_report ~runs:4 ~restarts:2 ~steps:50 ~paths:2 ~all_linear:false
      ~stats:(stats ~queries:5 ~sat:1) ()
  in
  let m = Dart.Parallel.merge [ r1; r2 ] in
  Alcotest.(check int) "runs summed" 14 m.Dart.Driver.runs;
  Alcotest.(check int) "restarts summed" 3 m.Dart.Driver.restarts;
  Alcotest.(check int) "steps summed" 150 m.Dart.Driver.total_steps;
  Alcotest.(check int) "paths summed" 7 m.Dart.Driver.paths_explored;
  Alcotest.(check int) "queries summed" 12 (Solver.queries m.Dart.Driver.solver_stats);
  Alcotest.(check int) "sat summed" 4 (Solver.sat_count m.Dart.Driver.solver_stats);
  Alcotest.(check bool) "all_linear conjoined" false m.Dart.Driver.all_linear;
  Alcotest.(check bool) "all_locs_definite conjoined" true m.Dart.Driver.all_locs_definite

let test_merge_verdict () =
  let budget = fake_report ~verdict:Dart.Driver.Budget_exhausted () in
  let complete = fake_report ~verdict:Dart.Driver.Complete () in
  let check name expected reports =
    let m = Dart.Parallel.merge reports in
    let got =
      match m.Dart.Driver.verdict with
      | Dart.Driver.Bug_found _ -> "bug"
      | Dart.Driver.Complete -> "complete"
      | Dart.Driver.Budget_exhausted -> "budget"
      | Dart.Driver.Time_exhausted -> "time"
      | Dart.Driver.Interrupted -> "interrupted"
    in
    Alcotest.(check string) name expected got
  in
  check "all budget" "budget" [ budget; budget ];
  check "one complete wins" "complete" [ budget; complete; budget ];
  check "bug wins" "bug"
    [ complete; fake_report ~bugs:[ bug "f" 0 ] () ];
  Alcotest.check_raises "empty merge rejected" (Invalid_argument "Parallel.merge: empty report list")
    (fun () -> ignore (Dart.Parallel.merge []))

(* ---- the domain pool -------------------------------------------------------- *)

let test_pool_order_and_errors () =
  let results =
    Dart.Parallel.map ~jobs:3
      (Array.init 20 (fun i () -> if i = 7 then failwith "task 7" else i * i))
  in
  Alcotest.(check int) "one result per task" 20 (Array.length results);
  Array.iteri
    (fun i r ->
      match r with
      | Ok v -> Alcotest.(check int) (Printf.sprintf "task %d in order" i) (i * i) v
      | Error (Failure msg) when i = 7 ->
        Alcotest.(check string) "the raising task's exception" "task 7" msg
      | Error e -> Alcotest.failf "task %d: unexpected %s" i (Printexc.to_string e))
    results;
  Alcotest.(check int) "no tasks, no results" 0
    (Array.length (Dart.Parallel.map ~jobs:2 ([||] : (unit -> int) array)))

(* The domains that ran [n] tasks on a pool of [jobs]. Each task
   sleeps briefly, so every domain the pool starts gets to take tasks
   before the caller drains the counter. *)
let pool_domains ~jobs n =
  let lock = Mutex.create () in
  let seen = ref [] in
  let task () =
    Unix.sleepf 0.002;
    Mutex.lock lock;
    seen := (Domain.self () :> int) :: !seen;
    Mutex.unlock lock
  in
  ignore (Dart.Parallel.map ~jobs (Array.make n task));
  List.sort_uniq compare !seen

let test_pool_domains () =
  Alcotest.(check (list int)) "jobs=1: every task on the caller"
    [ (Domain.self () :> int) ]
    (pool_domains ~jobs:1 12);
  List.iter
    (fun (jobs, n) ->
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d, %d tasks: at most min jobs tasks domains" jobs n)
        true
        (List.length (pool_domains ~jobs n) <= min jobs n))
    [ (2, 12); (3, 2); (3, 9) ]

let test_pool_bounds () =
  let ran = ref false in
  List.iter
    (fun jobs ->
      Alcotest.check_raises
        (Printf.sprintf "jobs=%d rejected" jobs)
        (Invalid_argument "Parallel: jobs must be in 0..128")
        (fun () -> ignore (Dart.Parallel.map ~jobs [| (fun () -> ran := true) |])))
    [ -1; Dart.Parallel.max_jobs + 1 ];
  Alcotest.(check bool) "rejected before running anything" false !ran;
  Alcotest.(check int) "the runtime's domain limit" 128 Dart.Parallel.max_jobs;
  let n = Dart.Parallel.workers 0 in
  Alcotest.(check bool) "jobs=0 resolves to one per core" true
    (n >= 1 && n <= Dart.Parallel.max_jobs)

(* ---- worker seeds ---------------------------------------------------------- *)

let test_worker_seeds () =
  let s1 = Dart.Parallel.worker_seeds ~base_seed:42 4 in
  let s2 = Dart.Parallel.worker_seeds ~base_seed:42 4 in
  Alcotest.(check (list int)) "deterministic" (Array.to_list s1) (Array.to_list s2);
  Alcotest.(check int) "worker 0 inherits base seed" 42 s1.(0);
  let distinct = List.sort_uniq compare (Array.to_list s1) in
  Alcotest.(check int) "all distinct" 4 (List.length distinct)

(* ---- determinism contract -------------------------------------------------- *)

let norm (r : Dart.Driver.report) =
  ( r.Dart.Driver.verdict,
    r.Dart.Driver.runs,
    r.Dart.Driver.restarts,
    r.Dart.Driver.total_steps,
    r.Dart.Driver.paths_explored,
    List.sort compare r.Dart.Driver.coverage_sites,
    r.Dart.Driver.bugs )

let prepare_workload (src, toplevel) ~depth =
  Dart.Driver.prepare ~toplevel ~depth (Minic.Parser.parse_program src)

let test_jobs1_equals_sequential () =
  (* Two seed workloads: one buggy, one that terminates Complete. *)
  List.iter
    (fun (workload, depth) ->
      let prog = prepare_workload workload ~depth in
      let base = Dart.Driver.Options.make ~depth () in
      let seq = Dart.Driver.run ~options:base prog in
      let par = Dart.Parallel.run ~options:(Dart.Parallel.options ~jobs:1 base) prog in
      Alcotest.(check int) "one worker" 1 par.Dart.Parallel.jobs;
      Alcotest.(check bool) "report identical to Driver.run" true
        (norm seq = norm par.Dart.Parallel.merged))
    [ (Workloads.Paper_examples.ac_controller, 2); (Workloads.Paper_examples.section_2_4, 1) ]

let bug_keys (r : Dart.Driver.report) =
  List.sort_uniq compare (List.map Dart.Driver.bug_key r.Dart.Driver.bugs)

let test_jobs4_same_bug_set () =
  List.iter
    (fun (workload, depth) ->
      let prog = prepare_workload workload ~depth in
      let base = Dart.Driver.Options.make ~depth ~max_runs:2_000 () in
      let r1 = Dart.Parallel.run ~options:(Dart.Parallel.options ~jobs:1 base) prog in
      let r4 = Dart.Parallel.run ~options:(Dart.Parallel.options ~jobs:4 base) prog in
      let tag (r : Dart.Parallel.report) =
        match r.Dart.Parallel.merged.Dart.Driver.verdict with
        | Dart.Driver.Bug_found _ -> "bug"
        | Dart.Driver.Complete -> "complete"
        | Dart.Driver.Budget_exhausted -> "budget"
        | Dart.Driver.Time_exhausted -> "time"
        | Dart.Driver.Interrupted -> "interrupted"
      in
      Alcotest.(check string) "same verdict" (tag r1) (tag r4);
      Alcotest.(check bool) "same deduped bug set" true
        (bug_keys r1.Dart.Parallel.merged = bug_keys r4.Dart.Parallel.merged))
    [ (Workloads.Paper_examples.section_2_1, 1); (Workloads.Paper_examples.section_2_4, 1);
      (Workloads.Paper_examples.ac_controller, 2);
      ((Workloads.Sip_parser.vulnerable, Workloads.Sip_parser.toplevel), 1) ]

let test_shared_cache_jobs () =
  (* The shared solve cache and pooled budget are accelerations, not
     search changes: at jobs=4 the deduped bug set and coverage must
     match jobs=1, and some of jobs=4's hits must come from entries a
     peer published. A lone worker has no peers: its cache hits are
     all its own, so none counts as shared. *)
  let prog = prepare_workload Workloads.Paper_examples.ac_controller ~depth:2 in
  let opts = Dart.Driver.Options.make ~depth:2 ~max_runs:2_000 ~stop_on_first_bug:false () in
  let run jobs = Dart.Parallel.run ~options:(Dart.Parallel.options ~jobs opts) prog in
  let r1 = run 1 and r4 = run 4 in
  Alcotest.(check bool) "same deduped bug set" true
    (bug_keys r1.Dart.Parallel.merged = bug_keys r4.Dart.Parallel.merged);
  Alcotest.(check bool) "same coverage" true
    (List.sort compare r1.Dart.Parallel.merged.Dart.Driver.coverage_sites
    = List.sort compare r4.Dart.Parallel.merged.Dart.Driver.coverage_sites);
  Alcotest.(check bool) "jobs=4: peers answered queries" true
    (Solver.shared_hits r4.Dart.Parallel.merged.Dart.Driver.solver_stats > 0);
  Alcotest.(check bool) "jobs=1: the worker hits its own entries" true
    (Solver.cache_hits r1.Dart.Parallel.merged.Dart.Driver.solver_stats > 0);
  Alcotest.(check int) "jobs=1: no shared hits" 0
    (Solver.shared_hits r1.Dart.Parallel.merged.Dart.Driver.solver_stats)

let test_portfolio_strategies () =
  let prog = prepare_workload Workloads.Paper_examples.section_2_4 ~depth:1 in
  let base = Dart.Driver.Options.make ~max_runs:400 () in
  let portfolio = [ Dart.Strategy.Dfs; Dart.Strategy.Random_branch; Dart.Strategy.Bfs ] in
  let r = Dart.Parallel.run ~options:(Dart.Parallel.options ~jobs:3 ~portfolio base) prog in
  Alcotest.(check (list string)) "portfolio cycled"
    [ "dfs"; "random-branch"; "bfs" ]
    (List.map
       (fun w -> Dart.Strategy.to_string w.Dart.Parallel.w_strategy)
       r.Dart.Parallel.workers);
  (* The DFS worker proves completeness for the whole space. *)
  Alcotest.(check bool) "merged verdict complete" true
    (r.Dart.Parallel.merged.Dart.Driver.verdict = Dart.Driver.Complete)

(* ---- strategy candidate set ------------------------------------------------ *)

let test_candidates_dfs () =
  let rng = Dart_util.Prng.create 1 in
  let c = Strategy.candidates_of_list [ 0; 2; 5; 9 ] in
  Alcotest.(check (option int)) "deepest first" (Some 9) (Strategy.choose Strategy.Dfs rng c);
  Strategy.remove_failed Strategy.Dfs c;
  Alcotest.(check (option int)) "then next deepest" (Some 5)
    (Strategy.choose Strategy.Dfs rng c);
  Strategy.remove_failed Strategy.Dfs c;
  ignore (Strategy.choose Strategy.Dfs rng c);
  Strategy.remove_failed Strategy.Dfs c;
  Alcotest.(check (option int)) "down to the shallowest" (Some 0)
    (Strategy.choose Strategy.Dfs rng c);
  Strategy.remove_failed Strategy.Dfs c;
  Alcotest.(check (option int)) "exhausted" None (Strategy.choose Strategy.Dfs rng c)

let test_candidates_bfs () =
  let rng = Dart_util.Prng.create 1 in
  let c = Strategy.candidates_of_list [ 1; 4; 6 ] in
  Alcotest.(check (option int)) "shallowest first" (Some 1)
    (Strategy.choose Strategy.Bfs rng c);
  Strategy.remove_failed Strategy.Bfs c;
  Alcotest.(check (option int)) "then next" (Some 4) (Strategy.choose Strategy.Bfs rng c);
  Alcotest.(check int) "two left" 2 (Strategy.cardinal c)

let test_candidates_random () =
  let rng = Dart_util.Prng.create 7 in
  let c = Strategy.candidates_of_list [ 3; 8; 11; 20 ] in
  let seen = ref [] in
  let rec drain () =
    match Strategy.choose Strategy.Random_branch rng c with
    | None -> ()
    | Some j ->
      seen := j :: !seen;
      Strategy.remove_failed Strategy.Random_branch c;
      drain ()
  in
  drain ();
  Alcotest.(check (list int)) "every candidate drained exactly once" [ 3; 8; 11; 20 ]
    (List.sort compare !seen)

let test_candidates_empty_remove () =
  let rng = Dart_util.Prng.create 1 in
  let c = Strategy.candidates_of_list [] in
  Alcotest.(check (option int)) "empty set" None (Strategy.choose Strategy.Dfs rng c);
  Alcotest.check_raises "remove without choose"
    (Invalid_argument "Strategy.remove_failed: no preceding choose") (fun () ->
      Strategy.remove_failed Strategy.Dfs c)

(* ---- random search budget boundary ----------------------------------------- *)

let test_random_budget_boundary () =
  (* No findable bug: the budget must be exactly consumed, not
     max_runs - 1 or max_runs + 1. *)
  let src = "void f(int x) { if (x == 123456789) abort(); }" in
  let prog = prepare_workload (src, "f") ~depth:1 in
  let r = Dart.Random_search.run ~seed:3 ~max_runs:17 prog in
  Alcotest.(check bool) "no bug" true (r.Dart.Random_search.verdict = `No_bug);
  Alcotest.(check int) "runs = max_runs exactly" 17 r.Dart.Random_search.runs;
  (* A bug on the very first run: the boundary run still counts. *)
  let prog = prepare_workload ("void g(int x) { abort(); }", "g") ~depth:1 in
  let r = Dart.Random_search.run ~seed:3 ~max_runs:1 prog in
  (match r.Dart.Random_search.verdict with
   | `Bug_found b -> Alcotest.(check int) "found on run 1" 1 b.Dart.Driver.bug_run
   | `No_bug | `Time_exhausted | `Interrupted ->
     Alcotest.fail "expected the unconditional abort");
  Alcotest.(check int) "runs = 1" 1 r.Dart.Random_search.runs

let suite =
  [ Alcotest.test_case "merge: bug dedup" `Quick test_merge_bug_dedup;
    Alcotest.test_case "merge: coverage union" `Quick test_merge_coverage_union;
    Alcotest.test_case "merge: counter sums" `Quick test_merge_counter_sums;
    Alcotest.test_case "merge: verdict rules" `Quick test_merge_verdict;
    Alcotest.test_case "pool: task order and errors" `Quick test_pool_order_and_errors;
    Alcotest.test_case "pool: domains per jobs" `Quick test_pool_domains;
    Alcotest.test_case "pool: jobs bounds" `Quick test_pool_bounds;
    Alcotest.test_case "worker seeds" `Quick test_worker_seeds;
    Alcotest.test_case "jobs=1 = sequential" `Quick test_jobs1_equals_sequential;
    Alcotest.test_case "jobs=4 same bug set" `Quick test_jobs4_same_bug_set;
    Alcotest.test_case "shared cache: jobs=4 vs jobs=1" `Quick test_shared_cache_jobs;
    Alcotest.test_case "portfolio strategies" `Quick test_portfolio_strategies;
    Alcotest.test_case "candidates: dfs" `Quick test_candidates_dfs;
    Alcotest.test_case "candidates: bfs" `Quick test_candidates_bfs;
    Alcotest.test_case "candidates: random" `Quick test_candidates_random;
    Alcotest.test_case "candidates: edge cases" `Quick test_candidates_empty_remove;
    Alcotest.test_case "random budget boundary" `Quick test_random_budget_boundary ]
