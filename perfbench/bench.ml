(* perfbench: the repository benchmark. README.md beside this file says
   why each workload was chosen and what every metric means.

     bench.exe --workload solver_chain|ns_protocol|osip_campaign
               [--seed N] [--gen-seed N] [--campaign-seed N] [--seconds S]
               [--trace 0|1]

   --trace 0 repeats the workload in a closed loop (one search or one
   campaign at a time) for S seconds, untraced, and reports the
   end-to-end metrics. --trace 1 alternates an untraced reference
   repetition with a traced one that splits the time across the
   repository's modules, and reports the per-layer metrics. Every
   verdict is compared with its known answer and every deterministic
   counter must repeat exactly; the last line of stdout is one JSON
   object. Exit status: 0 all correct, 1 a wrong verdict or a drifting
   counter, 2 a usage error. *)

module S = Perfbench_stats.Stats
module D = Dart.Driver
module T = Dart.Telemetry
module C = Dart.Concolic

let secs ns = Int64.to_float ns /. 1e9

let timed f =
  let t0 = T.now () in
  let r = f () in
  (r, secs (Int64.sub (T.now ()) t0))

let lines_of text = List.length (String.split_on_char '\n' text)

(* ---- workloads ---- *)

type search = {
  name : string;
  toplevel : string;
  source : string;
  depth : int;
  max_runs : int;
  expect : S.answer;
}

(* Bench A4's univariate chain: 101 paths, 5,050 queries, no simplex. *)
let deep_src n =
  Printf.sprintf
    {|
int deep(int x) {
  int acc = 0;
  int i = 0;
  while (i < %d) {
    if (x > i) acc = acc + 1;
    i = i + 1;
  }
  return acc;
}
|}
    n

(* A two-variable chain: every query goes to simplex. Char inputs keep
   3*a + 5*b and 7*i far inside int32. *)
let chain2_src n =
  Printf.sprintf
    {|
int chain2(char a, char b) {
  int acc = 0;
  int i = 0;
  while (i < %d) {
    if (3 * a + 5 * b > 7 * i) acc = acc + 1;
    i = i + 1;
  }
  return acc;
}
|}
    n

let solver_chain =
  [ { name = "deep"; toplevel = "deep"; source = deep_src 100; depth = 1; max_runs = 10_000;
      expect = S.Complete };
    { name = "chain2"; toplevel = "chain2"; source = chain2_src 20; depth = 1;
      max_runs = 10_000; expect = S.Complete } ]

(* Figure 10 at depth 4 and the three fix levels of §4.2. *)
let ns_protocol =
  List.map
    (fun (name, fix, expect) ->
      { name;
        toplevel = Workloads.Needham_schroeder.dolev_yao_toplevel;
        source = Workloads.Needham_schroeder.dolev_yao ~fix;
        depth = 4;
        max_runs = 20_000;
        expect })
    [ ("ns_none", `None, S.Bug); ("ns_buggy", `Buggy, S.Bug); ("ns_correct", `Correct, S.Complete) ]

let osip_functions = 120
let campaign_jobs = 2

type workload =
  | Searches of search list
  | Campaign of { gen_seed : int }

(* ---- shared result shapes ---- *)

type reference = {
  ref_runs : int;
  ref_queries : int;
  ref_answer : S.answer;
  ref_coverage : (string * int * bool) list; (* sorted *)
  ref_slices : int;
  ref_bugs : string list; (* campaign targets retired with a bug, sorted *)
}

(* One untraced repetition of a workload. *)
type rep = {
  setup_samples : float list;
  search_s : float;
  cal_setup : float; (* calibration seconds around the setups ... *)
  cal_search : float; (* ... and around the search *)
  runs : int;
  branch_dirs : int;
  searches : int;
  mismatches : (string * S.answer * S.answer) list;
  counters : (string * int) list;
  refs : (string * reference) list;
}

let setup_samples_per_rep = 5

(* ---- calibration ---- *)

(* The machine this runs on is shared: its speed was seen to swing by
   2x within seconds. A fixed CPU workload that calls no repository
   code is timed around every setup and every search; each end-to-end
   time is scaled by [calibration_reference_s] over the calibration
   time measured around it, i.e. reported in seconds of a machine that
   runs the calibration loop in [calibration_reference_s]. The raw
   seconds are printed above the JSON line. *)
type cell = { v : int; next : cell option }

(* Integer hash tables, a sort, random array access through closures,
   small records and string hashing: the kinds of work the searches do. *)
let calibration_loop () =
  let h = Hashtbl.create 16 in
  let acc = ref 0 in
  for k = 1 to 50_000 do
    Hashtbl.replace h (k land 4095) k;
    acc := !acc + (Hashtbl.find h (k land 4095) land 7)
  done;
  let sorted = List.sort compare (List.init 12_500 (fun k -> k * 7919 mod 10_007)) in
  let a = Array.make 65_536 0 in
  let x = ref 12_345 in
  let fs = [| (fun y -> y + 1); (fun y -> y * 3); (fun y -> y lxor 5); (fun y -> y - 7) |] in
  for k = 1 to 150_000 do
    x := ((!x * 1_103_515_245) + 12_345) land 0x3fffffff;
    let i = !x land 65_535 in
    a.(i) <- fs.(k land 3) a.(i)
  done;
  let cells = ref None in
  for k = 1 to 20_000 do
    cells := Some { v = k; next = !cells }
  done;
  let names = Hashtbl.create 64 in
  for k = 1 to 20_000 do
    Hashtbl.replace names (string_of_int (k land 1023)) k
  done;
  Sys.opaque_identity
    (!acc + List.length sorted + a.(7) + Hashtbl.length names
    + match !cells with Some c -> c.v | None -> 0)

(* The mean of three passes on each of [domains] domains at once (the
   campaign's speed depends on both cores): over 90 s of ns_protocol
   repetitions the mean tracked the machine's speed better than the
   fastest pass did. *)
let calibrate ~domains =
  let passes () = List.init 3 (fun _ -> snd (timed (fun () -> ignore (calibration_loop ())))) in
  let others = List.init (domains - 1) (fun _ -> Domain.spawn passes) in
  let all = passes () @ List.concat_map Domain.join others in
  List.fold_left ( +. ) 0.0 all /. float_of_int (List.length all)

let calibration_reference_s = 0.011

(* Setups, then the timed search, with calibration around both. *)
let measure ?(domains = 1) ~setup ~search () =
  let c0 = calibrate ~domains in
  let setups = List.init setup_samples_per_rep (fun _ -> timed setup) in
  let c1 = calibrate ~domains in
  Gc.full_major ();
  let result, search_s = timed (fun () -> search (fst (List.hd (List.rev setups)))) in
  let c2 = calibrate ~domains in
  (setups, result, search_s, (c0 +. c1) /. 2.0, (c1 +. c2) /. 2.0)

(* ---- single directed searches (solver_chain, ns_protocol) ---- *)

let options_for ~seed s = D.Options.make ~seed ~depth:s.depth ~max_runs:s.max_runs ()

let target_of s =
  Dart.Target.make ~depth:s.depth ~toplevel:s.toplevel
    (Dart.Target.Text { file = None; text = s.source })

(* The public preparation a user pays before a search: a fresh session
   (nothing cached), prepare, precompile. *)
let setup_search ~seed s =
  let session = Dart.Session.create ~options:(options_for ~seed s) () in
  let target = target_of s in
  Machine.precompile (Dart.Session.prepare session target);
  (session, target)

let answer_of_report (r : D.report) =
  match r.D.verdict with
  | D.Bug_found _ -> S.Bug
  | D.Complete ->
    if r.D.all_linear && r.D.all_locs_definite then S.Complete
    else S.Failed "completeness flags cleared"
  | D.Budget_exhausted -> S.No_bug
  | D.Time_exhausted -> S.Failed "time budget"
  | D.Interrupted -> S.Failed "interrupted"

let directed_rep ~seed specs =
  let setups, outcomes, search_s, cal_setup, cal_search =
    measure
      ~setup:(fun () -> List.map (setup_search ~seed) specs)
      ~search:
        (List.map (fun (session, target) ->
             match Dart.Engine.run session target with
             | Dart.Engine.Directed_report r -> Ok r
             | _ -> Error "not a sequential directed report"
             | exception e -> Error (Printexc.to_string e)))
      ()
  in
  let per_search =
    List.map2
      (fun s outcome ->
        match outcome with
        | Ok r ->
          let q = Solver.queries r.D.solver_stats in
          ( s,
            answer_of_report r,
            [ (s.name ^ ".runs", r.D.runs);
              (s.name ^ ".branch_dirs", r.D.branches_covered);
              (s.name ^ ".machine.steps", r.D.total_steps);
              (s.name ^ ".solver.queries", q);
              (s.name ^ ".solver.simplex", Solver.simplex_queries r.D.solver_stats) ],
            Some
              { ref_runs = r.D.runs;
                ref_queries = q;
                ref_answer = answer_of_report r;
                ref_coverage = List.sort compare r.D.coverage_sites;
                ref_slices = 0; ref_bugs = [] } )
        | Error msg -> (s, S.Failed msg, [], None))
      specs outcomes
  in
  let sum key =
    List.fold_left
      (fun acc (s, _, cs, _) -> acc + Option.value ~default:0 (List.assoc_opt (s.name ^ key) cs))
      0 per_search
  in
  { setup_samples = List.map snd setups;
    search_s;
    cal_setup;
    cal_search;
    runs = sum ".runs";
    branch_dirs = sum ".branch_dirs";
    searches = List.length specs;
    mismatches =
      S.mismatches
        ~expected:(List.map (fun s -> (s.name, s.expect)) specs)
        ~observed:(List.map (fun (s, a, _, _) -> (s.name, a)) per_search);
    counters = List.concat_map (fun (_, _, cs, _) -> cs) per_search;
    refs = List.filter_map (fun (s, _, _, r) -> Option.map (fun r -> (s.name, r)) r) per_search }

(* ---- the library campaign (osip_campaign) ---- *)

let campaign_options ?telemetry ~seed () =
  D.Options.make ~seed ~max_runs:600 ~per_function_runs:150 ?telemetry ()

let library ~gen_seed = Workloads.Osip_sim.generate ~seed:gen_seed ~n:osip_functions

(* The generator's ground truth over every discovered target: a planted
   NULL dereference must retire with a bug, anything else must not. *)
let campaign_expected ~targets funcs =
  let vulnerable =
    List.filter_map
      (fun f ->
        if f.Workloads.Osip_sim.gf_vulnerable then Some f.Workloads.Osip_sim.gf_toplevel else None)
      funcs
  in
  let names = List.sort_uniq compare (targets @ vulnerable) in
  List.map (fun n -> (n, if List.mem n vulnerable then S.Bug else S.No_bug)) names

let campaign_observed (r : Dart.Campaign.report) =
  List.map
    (fun tr ->
      ( tr.Dart.Campaign.tr_name,
        match tr.Dart.Campaign.tr_retired with
        | Dart.Campaign.Bug -> S.Bug
        | Dart.Campaign.Quarantined why -> S.Failed ("quarantined: " ^ why)
        | Dart.Campaign.Complete | Dart.Campaign.Saturated | Dart.Campaign.Budget_capped ->
          S.No_bug ))
    r.Dart.Campaign.cam_results
  @ List.map (fun (n, why) -> (n, S.Failed why)) r.Dart.Campaign.cam_skipped
  @ List.map (fun n -> (n, S.Failed "unfinished")) r.Dart.Campaign.cam_unfinished

(* Parse, discover and typecheck: the library's public preparation. *)
let setup_library src =
  let ast = Minic.Parser.parse_program src in
  let targets, _ = Dart.Campaign.discover ast in
  ignore (Minic.Typecheck.check ast);
  targets

let campaign_runs (r : Dart.Campaign.report) =
  List.fold_left (fun a tr -> a + tr.Dart.Campaign.tr_runs) 0 r.Dart.Campaign.cam_results

let campaign_slices (r : Dart.Campaign.report) =
  List.fold_left (fun a tr -> a + tr.Dart.Campaign.tr_slices) 0 r.Dart.Campaign.cam_results

let bug_targets (r : Dart.Campaign.report) =
  List.filter_map
    (fun tr ->
      if tr.Dart.Campaign.tr_retired = Dart.Campaign.Bug then Some tr.Dart.Campaign.tr_name
      else None)
    r.Dart.Campaign.cam_results
  |> List.sort compare

let campaign_rep ~jobs ~seed ~gen_seed =
  let src, funcs = library ~gen_seed in
  let setups, result, search_s, cal_setup, cal_search =
    measure ~domains:jobs
      ~setup:(fun () -> setup_library src)
      ~search:(fun _ ->
        try Dart.Campaign.run ~jobs ~options:(campaign_options ~seed ()) src
        with e -> Error (Printexc.to_string e))
      ()
  in
  let targets = fst (List.hd setups) in
  let expected = campaign_expected ~targets funcs in
  let base =
    { setup_samples = List.map snd setups;
      search_s;
      cal_setup;
      cal_search;
      runs = 0;
      branch_dirs = 0;
      searches = List.length targets;
      mismatches = [];
      counters = [];
      refs = [] }
  in
  match result with
  | Error msg ->
    { base with
      mismatches = S.mismatches ~expected ~observed:(List.map (fun (n, _) -> (n, S.Failed msg)) expected) }
  | Ok r ->
    let runs = campaign_runs r and slices = campaign_slices r in
    let coverage = Dart.Campaign.aggregate_sites r in
    let bugs = List.length r.Dart.Campaign.cam_crashes in
    let stopped =
      match r.Dart.Campaign.cam_status with
      | Dart.Campaign.Finished -> []
      | Dart.Campaign.Stopped_early why -> [ ("campaign", S.No_bug, S.Failed why) ]
    in
    { base with
      runs;
      branch_dirs = List.length coverage;
      mismatches = stopped @ S.mismatches ~expected ~observed:(campaign_observed r);
      counters =
        [ ("runs", runs);
          ("branch_dirs", List.length coverage);
          ("campaign.slices", slices);
          ("campaign.crashes", bugs) ];
      refs =
        [ ( "campaign",
            { ref_runs = runs;
              ref_queries = 0;
              ref_answer = S.No_bug;
              ref_coverage = coverage;
              ref_slices = slices;
              ref_bugs = bug_targets r } ) ] }

let untraced_rep ?(jobs = campaign_jobs) ~seed = function
  | Searches specs -> directed_rep ~seed specs
  | Campaign { gen_seed } -> campaign_rep ~jobs ~seed ~gen_seed

(* ---- traced repetitions ---- *)

(* Everything one traced repetition measures. Times in seconds. *)
type layers = {
  mutable parse_s : float;
  mutable parse_calls : int;
  mutable parse_lines : int;
  mutable typecheck_s : float;
  mutable lower_s : float; (* driver generation + lowering *)
  mutable instrs : int;
  mutable precompile_s : float;
  mutable concrete_s : float;
  mutable steps : int;
  mutable run_s : float;
  mutable runs : int;
  mutable conditionals : int;
  mutable prediction_failures : int;
  mutable run_us : float list;
  mutable solve_s : float;
  mutable solve_calls : int;
  mutable sliced_away : int;
  mutable cache_hits : int;
  mutable hit_s : float;
  mutable solver_s : float;
  mutable queries : int;
  mutable sat : int;
  mutable unsat : int;
  mutable unknown : int;
  mutable fast_path : int;
  mutable simplex : int;
  mutable ne_splits : int;
  mutable incremental_hits : int;
  mutable pops_saved : int;
  mutable query_us : float list;
  mutable discover_s : float;
  mutable rounds : int;
  mutable slices : int;
  mutable target_ms : float list;
  mutable prepare_s : float;
  mutable phase_s : float; (* time the program's own phase timers saw *)
  mutable program_s : float; (* wall clock of the span those timers watch *)
  mutable wall_s : float; (* traced wall clock the layers must add up to *)
  mutable search_s : float; (* traced search (or campaign) part of it *)
  mutable untraced_s : float; (* the same work untraced, for the overhead *)
  mutable problems : string list;
}

let new_layers () =
  { parse_s = 0.; parse_calls = 0; parse_lines = 0; typecheck_s = 0.; lower_s = 0.; instrs = 0;
    precompile_s = 0.; concrete_s = 0.; steps = 0; run_s = 0.; runs = 0; conditionals = 0;
    prediction_failures = 0; run_us = []; solve_s = 0.; solve_calls = 0; sliced_away = 0;
    cache_hits = 0; hit_s = 0.; solver_s = 0.; queries = 0; sat = 0; unsat = 0; unknown = 0;
    fast_path = 0; simplex = 0; ne_splits = 0; incremental_hits = 0; pops_saved = 0;
    query_us = []; discover_s = 0.; rounds = 0; slices = 0; target_ms = []; prepare_s = 0.;
    phase_s = 0.; program_s = 0.; wall_s = 0.; search_s = 0.; untraced_s = 0.; problems = [] }

let problem l fmt = Printf.ksprintf (fun m -> l.problems <- m :: l.problems) fmt

(* Self-times the traced wall clock is split into; the residual is
   [trace.unattributed_s]. *)
let self_times l =
  [ ("minic", l.parse_s +. l.typecheck_s);
    ("ram", l.lower_s);
    ("machine", l.precompile_s +. l.concrete_s);
    ("concolic", l.run_s -. l.concrete_s);
    ("solve_pc", l.solve_s -. l.solver_s);
    ("solver", l.solver_s);
    ("campaign", l.discover_s) ]

let unattributed l = S.residual ~wall:l.wall_s (List.map snd (self_times l))

(* Solve_query events split cache-hit time from real solver time. *)
let absorb_solve_events l events =
  List.iter
    (function
      | T.Solve_query { dur_ns; cache_hit; sliced; result; _ } ->
        l.sliced_away <- l.sliced_away + sliced;
        if cache_hit then begin
          l.cache_hits <- l.cache_hits + 1;
          l.hit_s <- l.hit_s +. secs dur_ns
        end
        else begin
          l.solver_s <- l.solver_s +. secs dur_ns;
          l.query_us <- (Int64.to_float dur_ns /. 1e3) :: l.query_us;
          match result with
          | T.R_sat -> l.sat <- l.sat + 1
          | T.R_unsat -> l.unsat <- l.unsat + 1
          | T.R_unknown -> l.unknown <- l.unknown + 1
        end
      | _ -> ())
    events

let ring_capacity = 1 lsl 20

let check_ring l what ring =
  if T.dropped ring > 0 then problem l "%s: trace ring dropped %d events" what (T.dropped ring)

(* The directed loop of [Driver.search] (stop on the first bug, DFS, no
   time budget), driven here so each call into Concolic and Solve_pc is
   timed. Returns the run's answer, runs, queries and coverage, which
   must equal the untraced search's. *)
let traced_search l ~seed s =
  let options = options_for ~seed s in
  let ring = T.ring ~capacity:ring_capacity in
  let entry = Dart.Driver_gen.wrapper_name in
  let wall0 = T.now () in
  let ast, dt = timed (fun () -> Minic.Parser.parse_program s.source) in
  l.parse_s <- l.parse_s +. dt;
  l.parse_calls <- l.parse_calls + 1;
  l.parse_lines <- l.parse_lines + lines_of s.source;
  let gen, dt_gen =
    timed (fun () -> Dart.Driver_gen.generate ast ~toplevel:s.toplevel ~depth:s.depth)
  in
  let tp, dt_tc = timed (fun () -> Minic.Typecheck.check gen) in
  l.typecheck_s <- l.typecheck_s +. dt_tc;
  let prog, dt_lower = timed (fun () -> Ram.Lower.lower_program tp) in
  l.lower_s <- l.lower_s +. dt_gen +. dt_lower;
  let (), dt = timed (fun () -> Machine.precompile prog) in
  l.precompile_s <- l.precompile_s +. dt;
  let search0 = T.now () in
  let ctx = D.make_ctx ~seed ~max_runs:s.max_runs () in
  let rng = ctx.D.sc_rng and im = ctx.D.sc_im and stats = ctx.D.sc_stats in
  let exec = options.D.Options.exec in
  let coverage = Hashtbl.create 256 in
  let runs = ref 0 and resource_limited = ref 0 in
  let all_linear = ref true and all_locs_definite = ref true in
  let bug = ref false and complete = ref false in
  (* Each run's input vector, for the concrete replay; recording it is
     the benchmark's own work and is taken off the clock. *)
  let replays = ref [] and bookkeeping = ref 0L in
  let run_s = ref 0.0 and solve_s = ref 0.0 in
  let run prev_stack =
    let t0 = T.now () in
    let data = C.run_once ~opts:exec ~rng ~im ~prev_stack ~entry prog in
    let t1 = T.now () in
    let dt = secs (Int64.sub t1 t0) in
    run_s := !run_s +. dt;
    l.run_us <- (dt *. 1e6) :: l.run_us;
    replays :=
      (Dart.Inputs.to_full_alist im, data.C.steps, data.C.outcome = C.Run_prediction_failure)
      :: !replays;
    bookkeeping := Int64.add !bookkeeping (Int64.sub (T.now ()) t1);
    incr runs;
    l.steps <- l.steps + data.C.steps;
    l.conditionals <- l.conditionals + data.C.conditionals;
    if not data.C.all_linear then all_linear := false;
    if not data.C.all_locs_definite then all_locs_definite := false;
    List.iter
      (fun ((fn, _, _) as site) ->
        if not (Dart.Driver_gen.is_harness_site fn) then Hashtbl.replace coverage site ())
      data.C.branch_sites;
    data
  in
  let rec directed prev_stack =
    if !runs >= s.max_runs then `Budget
    else
      let data = run prev_stack in
      match data.C.outcome with
      | C.Run_fault ((Machine.Step_limit | Machine.Call_depth), _) ->
        incr resource_limited;
        `Restart
      | C.Run_fault _ ->
        bug := true;
        `Bug
      | C.Run_prediction_failure ->
        all_linear := false;
        l.prediction_failures <- l.prediction_failures + 1;
        `Restart
      | C.Run_halted -> solve data
  and solve data =
    let next, dt =
      timed (fun () ->
          Dart.Solve_pc.solve ~cache:ctx.D.sc_cache ?incr:ctx.D.sc_incr
            ?breaker:ctx.D.sc_breaker ~slicing:true ~telemetry:ring
            ~sites:data.C.cond_sites ~strategy:Dart.Strategy.Dfs ~rng ~stats ~im
            ~stack:data.C.stack ~path_constraint:data.C.path_constraint ())
    in
    solve_s := !solve_s +. dt;
    l.solve_calls <- l.solve_calls + 1;
    match next with
    | Dart.Solve_pc.Next_run stack -> directed stack
    | Dart.Solve_pc.Exhausted { solver_incomplete } ->
      if solver_incomplete then all_linear := false;
      `Exhausted
  in
  let rec outer stack =
    match directed stack with
    | `Bug | `Budget -> ()
    | `Restart -> restart ()
    | `Exhausted ->
      if !all_linear && !all_locs_definite && !resource_limited = 0 then complete := true
      else restart ()
  and restart () =
    if !runs < s.max_runs then begin
      Option.iter Solver.Breaker.tick ctx.D.sc_breaker;
      Dart.Inputs.clear im;
      outer [||]
    end
  in
  Dart.Inputs.clear im;
  outer [||];
  let wall1 = T.now () in
  let search_s = secs (Int64.sub (Int64.sub wall1 search0) !bookkeeping) in
  l.wall_s <- l.wall_s +. secs (Int64.sub (Int64.sub wall1 wall0) !bookkeeping);
  l.search_s <- l.search_s +. search_s;
  l.target_ms <- (search_s *. 1e3) :: l.target_ms;
  l.run_s <- l.run_s +. !run_s;
  l.solve_s <- l.solve_s +. !solve_s;
  l.runs <- l.runs + !runs;
  (* Driver.search's phase timers: Execute, Solve, and Lower around
     Driver.prepare (generate, typecheck, lower). *)
  let prepare_s = dt_gen +. dt_tc +. dt_lower in
  l.phase_s <- l.phase_s +. !run_s +. !solve_s +. prepare_s;
  l.program_s <- l.program_s +. prepare_s +. search_s;
  (* Off the clock: the trace, the concrete replay and a public prepare. *)
  check_ring l s.name ring;
  absorb_solve_events l (T.events ring);
  l.queries <- l.queries + Solver.queries stats;
  let solved_events = l.sat + l.unsat + l.unknown in
  if solved_events <> l.queries then
    problem l "%s: %d non-hit Solve_query events for %d solver queries" s.name solved_events
      l.queries;
  l.fast_path <- l.fast_path + Solver.fast_path stats;
  l.simplex <- l.simplex + Solver.simplex_queries stats;
  l.ne_splits <- l.ne_splits + Solver.ne_splits stats;
  l.incremental_hits <- l.incremental_hits + Solver.incremental_hits stats;
  l.pops_saved <- l.pops_saved + Solver.pops_saved stats;
  let concrete = { exec with C.symbolic = false } in
  List.iter
    (fun (inputs, steps, prediction_failure) ->
      let rim = Dart.Inputs.create () in
      Dart.Inputs.restore rim inputs;
      let replay, dt =
        timed (fun () ->
            C.run_once ~opts:concrete ~rng:(Dart_util.Prng.create 0) ~im:rim ~prev_stack:[||]
              ~entry prog)
      in
      l.concrete_s <- l.concrete_s +. dt;
      if (not prediction_failure) && replay.C.steps <> steps then
        problem l "%s: concrete replay took %d steps, the instrumented run %d" s.name
          replay.C.steps steps)
    !replays;
  l.instrs <-
    l.instrs + Hashtbl.fold (fun _ f a -> a + Array.length f.Ram.Instr.code) prog.Ram.Instr.funcs 0;
  let session = Dart.Session.create ~options () in
  let _, dt = timed (fun () -> Dart.Session.prepare session (target_of s)) in
  l.prepare_s <- l.prepare_s +. dt;
  { ref_runs = !runs;
    ref_queries = Solver.queries stats;
    ref_answer = (if !bug then S.Bug else if !complete then S.Complete else S.No_bug);
    ref_coverage = List.sort compare (Hashtbl.fold (fun site () acc -> site :: acc) coverage []);
    ref_slices = 0; ref_bugs = [] }

(* The campaign at jobs 1, so every layer's time is wall-clock time,
   traced through a ring sink. Campaign.run is not instrumented from
   inside: its phase timers give execute, solve and lower; the calls it
   makes that no timer covers (parsing, discovery, typechecking) are
   repeated here, off the clock, to estimate their share. *)
let traced_campaign l ~seed ~gen_seed =
  let src, _ = library ~gen_seed in
  let ring = T.ring ~capacity:ring_capacity in
  let telemetry = { (T.with_sink ring) with T.worker_buffer = 1 lsl 15 } in
  let options = campaign_options ~telemetry ~seed () in
  let notes = ref [] in
  let wall0 = T.now () in
  let ast, dt_parse = timed (fun () -> Minic.Parser.parse_program src) in
  let _, dt_discover = timed (fun () -> Dart.Campaign.discover ast) in
  let _, dt_tc = timed (fun () -> Minic.Typecheck.check ast) in
  let result, cam_s =
    timed (fun () ->
        Dart.Campaign.run ~jobs:1 ~options ~progress:(fun m -> notes := m :: !notes) src)
  in
  l.wall_s <- l.wall_s +. secs (Int64.sub (T.now ()) wall0);
  l.search_s <- l.search_s +. cam_s;
  l.program_s <- l.program_s +. cam_s;
  check_ring l "campaign" ring;
  List.iter
    (fun m ->
      if String.length m >= 6 && String.sub m 0 6 = "trace:" then problem l "campaign: %s" m)
    !notes;
  match result with
  | Error msg ->
    problem l "traced campaign: %s" msg;
    None
  | Ok r ->
    let events = T.events ring in
    absorb_solve_events l events;
    List.iter
      (function
        | T.Run_end { steps; dur_ns; outcome; _ } ->
          l.runs <- l.runs + 1;
          l.steps <- l.steps + steps;
          l.run_us <- (Int64.to_float dur_ns /. 1e3) :: l.run_us;
          if outcome = "prediction_failure" then
            l.prediction_failures <- l.prediction_failures + 1;
          if outcome = "halted" then l.solve_calls <- l.solve_calls + 1
        | T.Branch_taken _ -> l.conditionals <- l.conditionals + 1
        | T.Round_end _ -> l.rounds <- l.rounds + 1
        | _ -> ())
      events;
    l.queries <- l.queries + l.sat + l.unsat + l.unknown;
    l.slices <- l.slices + campaign_slices r;
    l.target_ms <-
      List.map (fun (_, ns) -> Int64.to_float ns /. 1e6) r.Dart.Campaign.cam_times @ l.target_ms;
    let m = r.Dart.Campaign.cam_metrics in
    l.phase_s <- l.phase_s +. secs m.T.execute_ns +. secs m.T.solve_ns +. secs m.T.lower_ns;
    l.solve_s <- l.solve_s +. secs m.T.solve_ns;
    (* Off the clock: Campaign.run's own parse, discover and typecheck,
       then each target's preparation, split into its calls. *)
    let ast, est_parse = timed (fun () -> Minic.Parser.parse_program src) in
    let _, est_discover = timed (fun () -> Dart.Campaign.discover ast) in
    let _, est_tc = timed (fun () -> Minic.Typecheck.check ast) in
    let parse_t = ref 0.0 and gen_t = ref 0.0 and tc_t = ref 0.0 and lower_t = ref 0.0 in
    let rng = Dart_util.Prng.create seed in
    let concrete = { C.default_exec_options with C.symbolic = false } in
    List.iter
      (fun tr ->
        let name = tr.Dart.Campaign.tr_name in
        let session = Dart.Session.create ~options:(campaign_options ~seed ()) () in
        let target = Dart.Target.make ~toplevel:name (Dart.Target.Text { file = None; text = src }) in
        let _, dt = timed (fun () -> Dart.Session.prepare session target) in
        l.prepare_s <- l.prepare_s +. dt;
        let ast, dt = timed (fun () -> Minic.Parser.parse_program src) in
        parse_t := !parse_t +. dt;
        let gen, dt = timed (fun () -> Dart.Driver_gen.generate ast ~toplevel:name ~depth:1) in
        gen_t := !gen_t +. dt;
        let tp, dt = timed (fun () -> Minic.Typecheck.check gen) in
        tc_t := !tc_t +. dt;
        let prog, dt = timed (fun () -> Ram.Lower.lower_program tp) in
        lower_t := !lower_t +. dt;
        l.instrs <-
          l.instrs
          + Hashtbl.fold (fun _ f a -> a + Array.length f.Ram.Instr.code) prog.Ram.Instr.funcs 0;
        let (), dt = timed (fun () -> Machine.precompile prog) in
        l.precompile_s <- l.precompile_s +. dt;
        (* The campaign's input vectors are not observable: the concrete
           share is estimated from as many runs of the same program on
           fresh random inputs. *)
        for _ = 1 to tr.Dart.Campaign.tr_runs do
          let im = Dart.Inputs.create () in
          let _, dt =
            timed (fun () ->
                C.run_once ~opts:concrete ~rng ~im ~prev_stack:[||]
                  ~entry:Dart.Driver_gen.wrapper_name prog)
          in
          l.concrete_s <- l.concrete_s +. dt
        done)
      r.Dart.Campaign.cam_results;
    let n = List.length r.Dart.Campaign.cam_results in
    l.parse_s <- l.parse_s +. dt_parse +. est_parse +. !parse_t;
    l.parse_calls <- l.parse_calls + 2 + n;
    l.parse_lines <- l.parse_lines + ((2 + n) * lines_of src);
    (* The Lower phase timed generate + typecheck + lower of every
       target; split it by the repeated calls' shares. *)
    let prep = !gen_t +. !tc_t +. !lower_t in
    let tc_share = if prep > 0.0 then !tc_t /. prep else 0.0 in
    let lower_phase = secs m.T.lower_ns in
    l.typecheck_s <- l.typecheck_s +. dt_tc +. est_tc +. (lower_phase *. tc_share);
    l.lower_s <- l.lower_s +. (lower_phase *. (1.0 -. tc_share));
    l.discover_s <- l.discover_s +. dt_discover +. est_discover;
    (* Machines compile on first load, inside the Execute phase. *)
    l.run_s <- l.run_s +. secs m.T.execute_ns -. l.precompile_s;
    Some
      { ref_runs = campaign_runs r;
        ref_queries = 0;
        ref_answer = S.No_bug;
        ref_coverage = Dart.Campaign.aggregate_sites r;
        ref_slices = campaign_slices r;
        ref_bugs = bug_targets r }

(* ---- measuring loops ---- *)

type metric = { m_name : string; m_value : float; m_unit : string; m_int : bool }

let f name unit v = { m_name = name; m_value = v; m_unit = unit; m_int = false }
let i name unit v = { m_name = name; m_value = float_of_int v; m_unit = unit; m_int = true }

let heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* Closed loop: repeat [step] until [seconds] have passed and at least
   [min_reps] repetitions are done. *)
let repeat ~min_reps ~seconds step =
  let start = T.now () in
  let rec go acc =
    let acc = step () :: acc in
    let elapsed = secs (Int64.sub (T.now ()) start) in
    if elapsed >= seconds && List.length acc >= min_reps then List.rev acc else go acc
  in
  go []

let end_to_end ~peak_heap_mb (reps : rep list) =
  let timed_reps = List.tl reps in
  let first = List.hd reps in
  let scale cal = calibration_reference_s /. cal in
  let search (r : rep) = r.search_s *. scale r.cal_search in
  [ f "setup_s" "s"
      (S.median
         (List.concat_map
            (fun r -> List.map (fun t -> t *. scale r.cal_setup) r.setup_samples)
            timed_reps));
    f "search_s" "s" (S.median (List.map search timed_reps));
    f "runs_per_s" "1/s"
      (S.median (List.map (fun (r : rep) -> float_of_int r.runs /. search r) timed_reps));
    i "runs" "count" first.runs;
    i "branch_dirs" "count" first.branch_dirs;
    i "searches" "count" first.searches;
    f "peak_heap_mb" "MB" peak_heap_mb ]

let per_layer (ls : layers list) =
  let med g = S.median (List.map g ls) in
  let first = List.hd ls in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  (* Latency summaries per repetition (each has the same sample count),
     then the median of each figure across repetitions. *)
  let dist g =
    let sums = List.map (fun l -> S.summarize (g l)) ls in
    let first = List.hd sums in
    { first with
      S.p50 = S.median (List.map (fun d -> d.S.p50) sums);
      tail_value = S.median (List.map (fun d -> d.S.tail_value) sums) }
  in
  let runs = dist (fun l -> l.run_us) in
  let queries = dist (fun l -> l.query_us) in
  let targets = dist (fun l -> l.target_ms) in
  [ f "minic.parse_s" "s" (med (fun l -> l.parse_s));
    i "minic.parse_calls" "count" first.parse_calls;
    f "minic.parse_lines_per_s" "1/s" (med (fun l -> ratio (float_of_int l.parse_lines) l.parse_s));
    f "minic.typecheck_s" "s" (med (fun l -> l.typecheck_s));
    f "ram.lower_s" "s" (med (fun l -> l.lower_s));
    i "ram.instrs" "count" first.instrs;
    f "machine.precompile_s" "s" (med (fun l -> l.precompile_s));
    f "machine.concrete_s" "s" (med (fun l -> l.concrete_s));
    i "machine.steps" "count" first.steps;
    f "machine.steps_per_s" "1/s" (med (fun l -> ratio (float_of_int l.steps) l.concrete_s));
    f "concolic.run_s" "s" (med (fun l -> l.run_s));
    f "concolic.shadow_s" "s" (med (fun l -> l.run_s -. l.concrete_s));
    i "concolic.runs" "count" first.runs;
    i "concolic.conditionals" "count" first.conditionals;
    i "concolic.prediction_failures" "count" first.prediction_failures;
    f "concolic.run_p50_us" "us" runs.S.p50;
    f "concolic.run_tail_us" "us" runs.S.tail_value;
    f "concolic.run_tail_pct" "%" runs.S.tail_pct;
    i "concolic.run_samples" "count" runs.S.samples;
    f "solve_pc.s" "s" (med (fun l -> l.solve_s));
    i "solve_pc.calls" "count" first.solve_calls;
    i "solve_pc.sliced_away" "count" first.sliced_away;
    i "solve_pc.cache_hits" "count" first.cache_hits;
    f "solve_pc.cache_hit_ratio" "ratio"
      (ratio (float_of_int first.cache_hits) (float_of_int (first.cache_hits + first.queries)));
    f "solve_pc.hit_s" "s" (med (fun l -> l.hit_s));
    f "solver.s" "s" (med (fun l -> l.solver_s));
    i "solver.queries" "count" first.queries;
    i "solver.sat" "count" first.sat;
    i "solver.unsat" "count" first.unsat;
    i "solver.unknown" "count" first.unknown;
    i "solver.fast_path" "count" first.fast_path;
    i "solver.simplex" "count" first.simplex;
    i "solver.ne_splits" "count" first.ne_splits;
    i "solver.incremental_hits" "count" first.incremental_hits;
    i "solver.pops_saved" "count" first.pops_saved;
    f "solver.query_p50_us" "us" queries.S.p50;
    f "solver.query_tail_us" "us" queries.S.tail_value;
    f "solver.query_tail_pct" "%" queries.S.tail_pct;
    i "solver.query_samples" "count" queries.S.samples;
    i "campaign.rounds" "count" first.rounds;
    i "campaign.slices" "count" first.slices;
    f "campaign.target_p50_ms" "ms" targets.S.p50;
    f "campaign.target_tail_ms" "ms" targets.S.tail_value;
    f "campaign.target_tail_pct" "%" targets.S.tail_pct;
    i "campaign.target_samples" "count" targets.S.samples;
    f "campaign.prepare_s" "s" (med (fun l -> l.prepare_s));
    f "campaign.phase_s" "s" (med (fun l -> l.phase_s));
    f "campaign.unattributed_s" "s" (med (fun l -> l.program_s -. l.phase_s));
    f "trace.wall_s" "s" (med (fun l -> l.wall_s));
    f "trace.overhead_pct" "%"
      (med (fun l -> 100.0 *. (l.search_s -. l.untraced_s) /. l.untraced_s));
    f "trace.unattributed_s" "s" (med unattributed) ]

(* ---- output ---- *)

let json_number m =
  if m.m_int then Printf.sprintf "%d" (int_of_float m.m_value)
  else if Float.is_finite m.m_value then Printf.sprintf "%.17g" m.m_value
  else "0"

let print_result ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.m_name (json_number m)
             m.m_unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body

let report_rep_problems reps =
  List.iteri
    (fun k r ->
      List.iter
        (fun (name, exp, obs) ->
          Printf.printf "WRONG ANSWER rep %d: %s expected %s, observed %s\n" k name
            (S.answer_to_string exp) (S.answer_to_string obs))
        r.mismatches)
    reps;
  let drifted = S.drift (List.map (fun r -> r.counters) reps) in
  List.iter (fun c -> Printf.printf "COUNTER DRIFT: %s differs across repetitions\n" c) drifted;
  drifted

let print_counters r =
  List.iter (fun (k, v) -> Printf.printf "  %-28s %d\n" k v) r.counters

(* Bounds on the median residual, as shares of the traced wall clock.
   A single search is timed call by call; the campaign's internals are
   attributed from its phase timers and from calls repeated off the
   clock, so its margin is wider. *)
let residual_bounds = function
  | Searches _ -> (0.05, 0.15)
  | Campaign _ -> (0.10, 0.40)

let traced_main ~seconds ~seed workload =
  let pairs =
    repeat ~min_reps:1 ~seconds (fun () ->
        let rep = untraced_rep ~jobs:1 ~seed workload in
        let l = new_layers () in
        let traced =
          match workload with
          | Searches specs ->
            List.map (fun s -> (s.name, Some (traced_search l ~seed s))) specs
          | Campaign { gen_seed } -> [ ("campaign", traced_campaign l ~seed ~gen_seed) ]
        in
        l.untraced_s <- rep.search_s;
        List.iter
          (fun (name, t) ->
            match (t, List.assoc_opt name rep.refs) with
            | Some t, Some u ->
              if t <> u then
                problem l
                  "%s: traced run differs from the untraced one (runs %d/%d, queries %d/%d, \
                   verdict %s/%s, coverage %d/%d, slices %d/%d, bugs %d/%d)"
                  name t.ref_runs u.ref_runs t.ref_queries u.ref_queries
                  (S.answer_to_string t.ref_answer) (S.answer_to_string u.ref_answer)
                  (List.length t.ref_coverage) (List.length u.ref_coverage) t.ref_slices
                  u.ref_slices (List.length t.ref_bugs) (List.length u.ref_bugs)
            | _ -> problem l "%s: no traced or untraced result to compare" name)
          traced;
        (rep, l))
  in
  let reps = List.map fst pairs and ls = List.map snd pairs in
  let drifted = report_rep_problems reps in
  let layer_counters l =
    [ ("runs", l.runs); ("machine.steps", l.steps); ("concolic.conditionals", l.conditionals);
      ("solver.queries", l.queries); ("solver.simplex", l.simplex); ("campaign.slices", l.slices) ]
  in
  let layer_drift = S.drift (List.map layer_counters ls) in
  List.iter (fun c -> Printf.printf "COUNTER DRIFT (traced): %s\n" c) layer_drift;
  List.iteri
    (fun k l ->
      let sum = List.fold_left (fun a (_, v) -> a +. v) 0.0 (self_times l) in
      Printf.printf "traced rep %d: wall %.4fs = layers %.4fs + unattributed %.4fs (%.1f%%)\n" k
        l.wall_s sum (unattributed l) (100.0 *. unattributed l /. l.wall_s);
      List.iter (fun (n, v) -> Printf.printf "  %-10s %.4fs\n" n v) (self_times l);
      List.iter (fun p -> Printf.printf "TRACE PROBLEM: %s\n" p) (List.rev l.problems))
    ls;
  let below, above = residual_bounds workload in
  let wall = S.median (List.map (fun l -> l.wall_s) ls) in
  let residual = S.median (List.map unattributed ls) in
  let attribution_ok = S.residual_ok ~wall ~below ~above residual in
  if not attribution_ok then
    Printf.printf "TRACE PROBLEM: median unattributed %.4fs outside [-%.0f%%, +%.0f%%] of %.4fs\n"
      residual (100.0 *. below) (100.0 *. above) wall;
  let bad_traces =
    List.length (List.filter (fun l -> l.problems <> []) ls) + if attribution_ok then 0 else 1
  in
  let attempted = List.fold_left (fun a r -> a + r.searches) 0 reps in
  let failed = List.fold_left (fun a r -> a + List.length r.mismatches) 0 reps in
  let correct = failed = 0 && drifted = [] && layer_drift = [] && bad_traces = 0 in
  print_result ~correct ~attempted:(attempted + List.length ls) ~failed:(failed + bad_traces)
    (per_layer ls);
  correct

let untraced_main ~seconds ~seed workload =
  (* Repetition 0 warms caches and the heap and is not timed. *)
  (* The heap's high-water mark after one repetition: later ones reuse
     that heap, and how far they grow it depends on GC timing. The
     warm-up campaign runs on one domain: with two, the peak depends on
     when major cycles complete (17 to 47 MB over ten runs). Its
     counters must still equal the two-domain repetitions'. *)
  let warm = untraced_rep ~jobs:1 ~seed workload in
  let peak_heap_mb = heap_mb () in
  let reps = warm :: repeat ~min_reps:2 ~seconds (fun () -> untraced_rep ~seed workload) in
  let drifted = report_rep_problems reps in
  Printf.printf "repetitions: %d (the first one untimed)\n" (List.length reps);
  Printf.printf "raw search_s:";
  List.iter (fun (r : rep) -> Printf.printf " %.4f" r.search_s) reps;
  Printf.printf "\ncalibration_s:";
  List.iter (fun (r : rep) -> Printf.printf " %.5f" r.cal_search) reps;
  print_newline ();
  print_counters (List.hd reps);
  let attempted = List.fold_left (fun a r -> a + r.searches) 0 reps in
  let failed = List.fold_left (fun a r -> a + List.length r.mismatches) 0 reps in
  let correct = failed = 0 && drifted = [] in
  print_result ~correct ~attempted ~failed (end_to_end ~peak_heap_mb reps);
  correct

(* ---- command line ---- *)

let usage () =
  prerr_endline
    "usage: bench.exe --workload solver_chain|ns_protocol|osip_campaign [--seed N] \
     [--gen-seed N] [--campaign-seed N] [--seconds S] [--trace 0|1]";
  exit 2

let () =
  let workload = ref None and seed = ref 42 and gen_seed = ref 7 and campaign_seed = ref 11 in
  let seconds = ref 10.0 and trace = ref false in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest ->
      workload := Some w;
      parse rest
    | "--seed" :: n :: rest ->
      seed := int_of_string n;
      parse rest
    | "--campaign-seed" :: n :: rest ->
      campaign_seed := int_of_string n;
      parse rest
    | "--gen-seed" :: n :: rest ->
      gen_seed := int_of_string n;
      parse rest
    | "--seconds" :: s :: rest ->
      seconds := float_of_string s;
      parse rest
    | "--trace" :: t :: rest ->
      trace := (match t with "0" -> false | "1" -> true | _ -> usage ());
      parse rest
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  (* --seed is the search seed of the single searches. The campaign's
     library and search seeds are their own arguments: its aggregate
     coverage depends on the search seed through the random pointer
     coins, so the library is fixed unless asked otherwise. *)
  let workload, seed =
    match !workload with
    | Some "solver_chain" -> (Searches solver_chain, !seed)
    | Some "ns_protocol" -> (Searches ns_protocol, !seed)
    | Some "osip_campaign" -> (Campaign { gen_seed = !gen_seed }, !campaign_seed)
    | _ -> usage ()
  in
  let correct =
    if !trace then traced_main ~seconds:!seconds ~seed workload
    else untraced_main ~seconds:!seconds ~seed workload
  in
  exit (if correct then 0 else 1)
