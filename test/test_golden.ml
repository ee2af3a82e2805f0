(* Golden bytes for every persisted format: a single-run checkpoint, a
   campaign checkpoint, one JSONL trace line per event constructor,
   status lines and the campaign aggregate JSON. Round-trip tests pass
   even when both directions drift together; these pin the exact
   spelling, so a codec change that alters a byte fails here. The
   fixtures under golden/ were captured from the writers before they
   were consolidated. *)

module D = Dart.Driver

(* Names that need %-escapes in line records and JSON escapes in
   reports and traces: space, '%', tab, CR, newline, '"' and '\\'. *)
let odd_fn = "lib fn%\tx"
let odd_file = "dir name/100%\tsrc\r\n.mc"
let odd_str = "say \"hi\"\\ \n\tend"

let bug =
  { D.bug_fault = Machine.Div_by_zero;
    bug_site =
      { Machine.site_fn = odd_fn;
        site_pc = 17;
        site_loc = { Minic.Loc.file = odd_file; line = 12; col = 5 } };
    bug_run = 9;
    bug_inputs = [ (0, -3); (2, 255); (5, 1) ] }

let snapshot =
  { D.sn_pending_restart = true;
    sn_stack =
      [| { Dart.Concolic.br_branch = true; br_done = false };
         { Dart.Concolic.br_branch = false; br_done = true } |];
    sn_im = [ (0, -3, Dart.Inputs.Kint); (2, 255, Dart.Inputs.Kchar); (5, 1, Dart.Inputs.Kcoin) ];
    sn_rng = -4_611_686_018_427_387_904L;
    sn_runs = 9;
    sn_restarts = 1;
    sn_total_steps = 4321;
    sn_paths = 7;
    sn_resource_limited = 2;
    sn_all_linear = false;
    sn_all_locs_definite = true;
    sn_coverage = [ (odd_fn, 3, true); (odd_fn, 3, false); ("main", 8, true) ];
    sn_stats = [ ("queries", 11); ("sat", 5); ("unsat", 6) ];
    sn_bugs = [ bug; { bug with D.bug_inputs = []; bug_run = 10 } ] }

let meta =
  { Dart.Checkpoint.m_seed = 42;
    m_depth = 3;
    m_max_runs = 1000;
    m_strategy = Dart.Strategy.Bfs;
    m_incremental = true;
    m_shared_cache = false }

let campaign_options =
  D.Options.make ~seed:11 ~depth:2 ~max_runs:600 ~per_function_runs:150 ~stop_on_first_bug:false
    ()

let campaign_library = "int f(int x) { return x; }\n"

let campaign_report =
  let tr name index retired =
    { Dart.Campaign.tr_name = name;
      tr_index = index;
      tr_runs = 40 + index;
      tr_slices = 2;
      tr_retired = retired;
      tr_coverage = [];
      tr_bugs = [];
      tr_overruns = 0;
      tr_bopens = 0 }
  in
  let buggy =
    { (tr odd_fn 0 Dart.Campaign.Bug) with
      Dart.Campaign.tr_coverage = [ (odd_fn, 3, true); ("helper", 4, false) ];
      tr_bugs = [ bug ];
      tr_overruns = 2;
      tr_bopens = 1 }
  in
  let results =
    [ buggy;
      tr "parse_uri" 1 Dart.Campaign.Complete;
      tr "walk" 2 Dart.Campaign.Saturated;
      tr "grow" 3 Dart.Campaign.Budget_capped;
      tr "flaky" 4 (Dart.Campaign.Quarantined ("worker crashed\t3 times: \"boom\"")) ]
  in
  { Dart.Campaign.cam_targets = List.map (fun t -> t.Dart.Campaign.tr_name) results @ [ "late" ];
    cam_skipped = [ ("takes_struct", "parameter s has non-scalar type struct s") ];
    cam_results = results;
    cam_unfinished = [ "late" ];
    cam_crashes = [ (odd_fn, bug) ];
    cam_status = Dart.Campaign.Stopped_early "time budget";
    cam_resumed = 1;
    cam_metrics = Dart.Telemetry.create_metrics ();
    cam_times = [] }

let events =
  let open Dart.Telemetry in
  [ Run_start { run = 1 };
    Run_end { run = 1; outcome = odd_str; steps = 120; dur_ns = 5_000L };
    Branch_taken { fn = odd_str; pc = 4; dir = true };
    Solve_query
      { fn = odd_str; pc = 4; result = R_sat; dur_ns = 777L; cache_hit = false; sliced = 2 };
    Input_update { id = 3; value = -2_147_483_648 };
    Restart { restarts = 2 };
    Bug_found { fn = odd_str; pc = 9; fault = "div_by_zero"; run = 3 };
    Worker_spawn { worker = 1; seed = 99 };
    Worker_drain { worker = 1; runs = 50 };
    Worker_crash { worker = 2; reason = odd_str; respawned = true };
    Checkpoint_saved { run = 512 };
    Phase_total { phase = Solve; dur_ns = 123_456_789_012L };
    Cover_point { run = 7; covered = 12; elapsed_ns = 0L };
    Target_scheduled { target = odd_str; round = 3 };
    Slice_end { target = odd_str; round = 3; outcome = "saturated"; runs = 40; dur_ns = 1L };
    Target_retired { target = odd_str; reason = odd_str };
    Round_end { round = 3; active = 0; dur_ns = 42L };
    Breaker_open { fn = odd_str; pc = 11 };
    Breaker_close { fn = odd_str; pc = 11 } ]

let status =
  { Dart.Status.st_mode = Dart.Status.Campaign;
    st_elapsed_ns = 2_500_000_000L;
    st_budget_ns = Some 10_000_000_000L;
    st_runs = 4200;
    st_max_runs = 12_000;
    st_execs_per_sec = 1680;
    st_bugs = 3;
    st_covered = 128;
    st_frontier = 9;
    st_done = 40;
    st_active = 6;
    st_remaining = 16;
    st_round = 5;
    st_solve_p50_ns = 4_095L;
    st_solve_p99_ns = 65_535L }

let drop_phases json =
  String.split_on_char '\n' json
  |> List.filter (fun l -> not (Str_contains.contains l "\"phases\""))
  |> String.concat "\n"

(* Fixture file name -> bytes the current writers produce. *)
let rendered () =
  [ ("checkpoint.txt", Dart.Checkpoint.to_string meta snapshot);
    ( "campaign_checkpoint.txt",
      Dart.Campaign.to_string ~options:campaign_options ~library:campaign_library campaign_report
    );
    ("trace.jsonl", String.concat "" (List.map (fun e -> Dart.Telemetry.event_to_json e ^ "\n") events));
    ( "status.jsonl",
      Dart.Status.to_json status ^ "\n"
      ^ Dart.Status.to_json
          { status with Dart.Status.st_mode = Dart.Status.Run; st_budget_ns = None; st_round = 0 }
      ^ "\n" );
    ("campaign.json", drop_phases (Dart.Campaign.to_json campaign_report)) ]

let read_fixture name =
  let ic = open_in_bin (Filename.concat "golden" name) in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_fixture (name, actual) () =
  Alcotest.(check string) (name ^ " bytes") (read_fixture name) actual

let suite =
  List.map
    (fun ((name, _) as fx) -> Alcotest.test_case ("golden " ^ name) `Quick (test_fixture fx))
    (rendered ())
