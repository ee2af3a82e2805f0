(* Structured tracing and phase metrics. See telemetry.mli for the
   contract; the only subtlety here is that the null sink must keep the
   disabled path allocation-free, which is why every instrumentation
   point in the search guards event construction behind [enabled]. *)

type phase =
  | Execute
  | Solve
  | Lower
  | Merge

let phases = [ Execute; Solve; Lower; Merge ]

let phase_to_string = function
  | Execute -> "execute"
  | Solve -> "solve"
  | Lower -> "lower"
  | Merge -> "merge"

let phase_of_string = function
  | "execute" -> Some Execute
  | "solve" -> Some Solve
  | "lower" -> Some Lower
  | "merge" -> Some Merge
  | _ -> None

type solve_result =
  | R_sat
  | R_unsat
  | R_unknown

let solve_result_to_string = function
  | R_sat -> "sat"
  | R_unsat -> "unsat"
  | R_unknown -> "unknown"

let solve_result_of_string = function
  | "sat" -> Some R_sat
  | "unsat" -> Some R_unsat
  | "unknown" -> Some R_unknown
  | _ -> None

type event =
  | Run_start of { run : int }
  | Run_end of { run : int; outcome : string; steps : int; dur_ns : int64 }
  | Branch_taken of { fn : string; pc : int; dir : bool }
  | Solve_query of {
      fn : string;
      pc : int;
      result : solve_result;
      dur_ns : int64;
      cache_hit : bool;
      sliced : int;
    }
  | Input_update of { id : int; value : int }
  | Restart of { restarts : int }
  | Bug_found of { fn : string; pc : int; fault : string; run : int }
  | Worker_spawn of { worker : int; seed : int }
  | Worker_drain of { worker : int; runs : int }
  | Worker_crash of { worker : int; reason : string; respawned : bool }
  | Checkpoint_saved of { run : int }
  | Phase_total of { phase : phase; dur_ns : int64 }
  | Cover_point of { run : int; covered : int; elapsed_ns : int64 }
  | Target_scheduled of { target : string; round : int }
  | Slice_end of {
      target : string;
      round : int;
      outcome : string;
      runs : int;
      dur_ns : int64;
    }
  | Target_retired of { target : string; reason : string }
  | Round_end of { round : int; active : int; dur_ns : int64 }
  | Breaker_open of { fn : string; pc : int }
  | Breaker_close of { fn : string; pc : int }

(* Branch sites that belong to the harness rather than the program
   under test: the synthesized [__dart_*] driver functions and the
   synthetic [__coin] sites of symbolic pointer shapes. Both are
   excluded from [Coverage.compute] and [branches_covered], so trace
   summaries must count them apart to agree with the report. *)
let is_harness_site = Driver_gen.is_harness_site

(* ---- monotonic clock -------------------------------------------------------- *)

let now () = Monotonic_clock.now ()

(* ---- latency histograms ------------------------------------------------------- *)

module Hist = struct
  (* Log2-bucketed duration histogram: bucket [b] holds samples whose
     nanosecond duration lies in [2^b, 2^(b+1)) (bucket 0 additionally
     absorbs 0ns and 1ns). 63 buckets cover the whole non-negative
     Int64 range, so [add] never has to range-check twice. *)

  let nbuckets = 63

  type t = {
    mutable h_count : int;
    mutable h_sum_ns : int64;
    mutable h_max_ns : int64;
    h_buckets : int array;
  }

  let create () =
    { h_count = 0; h_sum_ns = 0L; h_max_ns = 0L; h_buckets = Array.make nbuckets 0 }

  let bucket_of_ns ns =
    if Int64.compare ns 2L < 0 then 0
    else begin
      let b = ref 0 in
      let v = ref ns in
      while Int64.compare !v 1L > 0 do
        incr b;
        v := Int64.shift_right_logical !v 1
      done;
      min !b (nbuckets - 1)
    end

  (* [lo, hi): the half-open nanosecond range of a bucket. *)
  let bucket_bounds b =
    if b < 0 || b >= nbuckets then invalid_arg "Telemetry.Hist.bucket_bounds";
    if b = 0 then (0L, 2L) else (Int64.shift_left 1L b, Int64.shift_left 1L (b + 1))

  let add t ns =
    let ns = if Int64.compare ns 0L < 0 then 0L else ns in
    t.h_count <- t.h_count + 1;
    t.h_sum_ns <- Int64.add t.h_sum_ns ns;
    if Int64.compare ns t.h_max_ns > 0 then t.h_max_ns <- ns;
    let b = bucket_of_ns ns in
    t.h_buckets.(b) <- t.h_buckets.(b) + 1

  let count t = t.h_count
  let sum_ns t = t.h_sum_ns
  let max_ns t = t.h_max_ns

  let mean_ns t =
    if t.h_count = 0 then 0L else Int64.div t.h_sum_ns (Int64.of_int t.h_count)

  (* Bucketwise addition: commutative and associative, so merging
     worker histograms in any order yields identical counts — the
     property the jobs=1 vs jobs=N determinism tests rely on. *)
  let merge ~into src =
    into.h_count <- into.h_count + src.h_count;
    into.h_sum_ns <- Int64.add into.h_sum_ns src.h_sum_ns;
    if Int64.compare src.h_max_ns into.h_max_ns > 0 then into.h_max_ns <- src.h_max_ns;
    Array.iteri (fun i c -> into.h_buckets.(i) <- into.h_buckets.(i) + c) src.h_buckets

  (* Upper bound of the first bucket whose cumulative count reaches
     [p] percent of the samples, clamped to the observed maximum so the
     reported value is a tight "p% of samples took at most this long".
     Deterministic given the bucket counts. *)
  let percentile t p =
    if t.h_count = 0 then 0L
    else begin
      let p = if p < 0.0 then 0.0 else if p > 100.0 then 100.0 else p in
      let need =
        max 1 (int_of_float (ceil (p /. 100.0 *. float_of_int t.h_count)))
      in
      let rec go b acc =
        if b >= nbuckets then t.h_max_ns
        else begin
          let acc = acc + t.h_buckets.(b) in
          if acc >= need then begin
            let _, hi = bucket_bounds b in
            let v = Int64.sub hi 1L in
            if Int64.compare v t.h_max_ns > 0 then t.h_max_ns else v
          end
          else go (b + 1) acc
        end
      in
      go 0 0
    end

  let p50 t = percentile t 50.0
  let p90 t = percentile t 90.0
  let p99 t = percentile t 99.0

  (* Non-empty buckets as [(lo, hi, count)], ascending. *)
  let buckets t =
    let acc = ref [] in
    for b = nbuckets - 1 downto 0 do
      if t.h_buckets.(b) > 0 then begin
        let lo, hi = bucket_bounds b in
        acc := (lo, hi, t.h_buckets.(b)) :: !acc
      end
    done;
    !acc
end

(* Compact human rendering of a nanosecond duration, used by status
   views and the profiler (not by any byte-diffed default output). *)
let ns_to_string ns =
  let f = Int64.to_float ns in
  if f < 1e3 then Printf.sprintf "%.0fns" f
  else if f < 1e6 then Printf.sprintf "%.1fus" (f /. 1e3)
  else if f < 1e9 then Printf.sprintf "%.2fms" (f /. 1e6)
  else Printf.sprintf "%.2fs" (f /. 1e9)

(* ---- JSONL codec ------------------------------------------------------------- *)

module J = Dart_util.Persist.Json

let event_to_json ev =
  let int v = J.Int (Int64.of_int v) in
  let obj tag fields = J.flat_object (("ev", J.Str tag) :: fields) in
  match ev with
  | Run_start { run } -> obj "run_start" [ ("run", int run) ]
  | Run_end { run; outcome; steps; dur_ns } ->
    obj "run_end"
      [ ("run", int run); ("outcome", J.Str outcome); ("steps", int steps); ("ns", J.Int dur_ns) ]
  | Branch_taken { fn; pc; dir } ->
    obj "branch" [ ("fn", J.Str fn); ("pc", int pc); ("dir", J.Bool dir) ]
  | Solve_query { fn; pc; result; dur_ns; cache_hit; sliced } ->
    obj "solve"
      [ ("fn", J.Str fn);
        ("pc", int pc);
        ("result", J.Str (solve_result_to_string result));
        ("ns", J.Int dur_ns);
        ("cache_hit", J.Bool cache_hit);
        ("sliced", int sliced) ]
  | Input_update { id; value } -> obj "input" [ ("id", int id); ("value", int value) ]
  | Restart { restarts } -> obj "restart" [ ("restarts", int restarts) ]
  | Bug_found { fn; pc; fault; run } ->
    obj "bug" [ ("fn", J.Str fn); ("pc", int pc); ("fault", J.Str fault); ("run", int run) ]
  | Worker_spawn { worker; seed } ->
    obj "worker_spawn" [ ("worker", int worker); ("seed", int seed) ]
  | Worker_drain { worker; runs } ->
    obj "worker_drain" [ ("worker", int worker); ("runs", int runs) ]
  | Worker_crash { worker; reason; respawned } ->
    obj "worker_crash"
      [ ("worker", int worker); ("reason", J.Str reason); ("respawned", J.Bool respawned) ]
  | Checkpoint_saved { run } -> obj "checkpoint" [ ("run", int run) ]
  | Phase_total { phase; dur_ns } ->
    obj "phase" [ ("phase", J.Str (phase_to_string phase)); ("ns", J.Int dur_ns) ]
  | Cover_point { run; covered; elapsed_ns } ->
    obj "cover" [ ("run", int run); ("covered", int covered); ("ns", J.Int elapsed_ns) ]
  | Target_scheduled { target; round } ->
    obj "target_scheduled" [ ("target", J.Str target); ("round", int round) ]
  | Slice_end { target; round; outcome; runs; dur_ns } ->
    obj "slice_end"
      [ ("target", J.Str target);
        ("round", int round);
        ("outcome", J.Str outcome);
        ("runs", int runs);
        ("ns", J.Int dur_ns) ]
  | Target_retired { target; reason } ->
    obj "target_retired" [ ("target", J.Str target); ("reason", J.Str reason) ]
  | Round_end { round; active; dur_ns } ->
    obj "round_end" [ ("round", int round); ("active", int active); ("ns", J.Int dur_ns) ]
  | Breaker_open { fn; pc } -> obj "breaker_open" [ ("fn", J.Str fn); ("pc", int pc) ]
  | Breaker_close { fn; pc } -> obj "breaker_close" [ ("fn", J.Str fn); ("pc", int pc) ]

let event_of_json line =
  let bad = Dart_util.Persist.bad in
  try
    let fields = J.parse_flat line in
    let str = J.str fields and int = J.int fields and i64 = J.i64 fields
    and bool = J.bool fields in
    let ev =
      match str "ev" with
      | "run_start" -> Run_start { run = int "run" }
      | "run_end" ->
        Run_end
          { run = int "run"; outcome = str "outcome"; steps = int "steps"; dur_ns = i64 "ns" }
      | "branch" -> Branch_taken { fn = str "fn"; pc = int "pc"; dir = bool "dir" }
      | "solve" ->
        let result =
          match solve_result_of_string (str "result") with
          | Some r -> r
          | None -> bad "bad solve result"
        in
        Solve_query
          { fn = str "fn";
            pc = int "pc";
            result;
            dur_ns = i64 "ns";
            cache_hit = bool "cache_hit";
            sliced = int "sliced" }
      | "input" -> Input_update { id = int "id"; value = int "value" }
      | "restart" -> Restart { restarts = int "restarts" }
      | "bug" ->
        Bug_found { fn = str "fn"; pc = int "pc"; fault = str "fault"; run = int "run" }
      | "worker_spawn" -> Worker_spawn { worker = int "worker"; seed = int "seed" }
      | "worker_drain" -> Worker_drain { worker = int "worker"; runs = int "runs" }
      | "worker_crash" ->
        Worker_crash
          { worker = int "worker"; reason = str "reason"; respawned = bool "respawned" }
      | "checkpoint" -> Checkpoint_saved { run = int "run" }
      | "phase" ->
        let phase =
          match phase_of_string (str "phase") with
          | Some p -> p
          | None -> bad "bad phase name"
        in
        Phase_total { phase; dur_ns = i64 "ns" }
      | "cover" ->
        Cover_point { run = int "run"; covered = int "covered"; elapsed_ns = i64 "ns" }
      | "target_scheduled" ->
        Target_scheduled { target = str "target"; round = int "round" }
      | "slice_end" ->
        Slice_end
          { target = str "target";
            round = int "round";
            outcome = str "outcome";
            runs = int "runs";
            dur_ns = i64 "ns" }
      | "target_retired" -> Target_retired { target = str "target"; reason = str "reason" }
      | "round_end" ->
        Round_end { round = int "round"; active = int "active"; dur_ns = i64 "ns" }
      | "breaker_open" -> Breaker_open { fn = str "fn"; pc = int "pc" }
      | "breaker_close" -> Breaker_close { fn = str "fn"; pc = int "pc" }
      | other -> bad "unknown event kind %S" other
    in
    Ok ev
  with Dart_util.Persist.Bad msg -> Error msg

(* ---- sinks -------------------------------------------------------------------- *)

(* The buffer starts at 64 slots on the first emit and doubles until it
   reaches [cap]; only a full-size ring wraps. A per-slice ring sized for
   a whole worker's trace therefore costs what its slice emits. *)
type ring_state = {
  cap : int;
  mutable arr : event array; (* length <= cap; grown on demand *)
  mutable next : int; (* next write slot *)
  mutable len : int; (* filled slots, <= cap *)
  mutable total : int;
  mutable lost : int; (* events overwritten after the ring filled *)
}

type sink =
  | Null
  | Ring of ring_state
  | Jsonl of { oc : out_channel; mutable written : int }

let null = Null

let ring ~capacity =
  if capacity < 1 then invalid_arg "Telemetry.ring: capacity < 1";
  Ring { cap = capacity; arr = [||]; next = 0; len = 0; total = 0; lost = 0 }

let jsonl oc = Jsonl { oc; written = 0 }

let enabled = function
  | Null -> false
  | Ring _ | Jsonl _ -> true

let emit sink ev =
  match sink with
  | Null -> ()
  | Ring r ->
    let size = Array.length r.arr in
    if r.next = size && size < r.cap then begin
      let grown = Array.make (min r.cap (max 64 (2 * size))) ev in
      Array.blit r.arr 0 grown 0 size;
      r.arr <- grown
    end;
    r.arr.(r.next) <- ev;
    r.next <- (r.next + 1) mod r.cap;
    if r.len < r.cap then r.len <- r.len + 1 else r.lost <- r.lost + 1;
    r.total <- r.total + 1
  | Jsonl j ->
    output_string j.oc (event_to_json ev);
    output_char j.oc '\n';
    j.written <- j.written + 1

let emitted = function
  | Null -> 0
  | Ring r -> r.total
  | Jsonl j -> j.written

let dropped = function
  | Null | Jsonl _ -> 0
  | Ring r -> r.lost

let events = function
  | Null | Jsonl _ -> []
  | Ring r ->
    List.init r.len (fun i ->
        (* Oldest event first: when the ring has wrapped, the oldest
           slot is the next write position. *)
        let start = if r.len < r.cap then 0 else r.next in
        r.arr.((start + i) mod r.cap))

let replay src ~into = List.iter (emit into) (events src)

let flush = function
  | Null | Ring _ -> ()
  | Jsonl j -> Stdlib.flush j.oc

(* ---- phase metrics ------------------------------------------------------------- *)

type metrics = {
  mutable execute_ns : int64;
  mutable solve_ns : int64;
  mutable lower_ns : int64;
  mutable merge_ns : int64;
  solve_hist : Hist.t; (* per-query solve latency, cache hits included *)
  run_hist : Hist.t; (* per-run execution latency *)
}

let create_metrics () =
  { execute_ns = 0L;
    solve_ns = 0L;
    lower_ns = 0L;
    merge_ns = 0L;
    solve_hist = Hist.create ();
    run_hist = Hist.create () }

let phase_ns m = function
  | Execute -> m.execute_ns
  | Solve -> m.solve_ns
  | Lower -> m.lower_ns
  | Merge -> m.merge_ns

let add_phase m phase ns =
  match phase with
  | Execute -> m.execute_ns <- Int64.add m.execute_ns ns
  | Solve -> m.solve_ns <- Int64.add m.solve_ns ns
  | Lower -> m.lower_ns <- Int64.add m.lower_ns ns
  | Merge -> m.merge_ns <- Int64.add m.merge_ns ns

let add_metrics ~into m =
  List.iter (fun p -> add_phase into p (phase_ns m p)) phases;
  Hist.merge ~into:into.solve_hist m.solve_hist;
  Hist.merge ~into:into.run_hist m.run_hist

let total_ns m =
  List.fold_left (fun acc p -> Int64.add acc (phase_ns m p)) 0L phases

let timed m phase f =
  let t0 = now () in
  let r = f () in
  add_phase m phase (Int64.sub (now ()) t0);
  r

let seconds ns = Int64.to_float ns /. 1e9

let metrics_to_assoc m =
  List.map (fun p -> (phase_to_string p ^ "_s", seconds (phase_ns m p))) phases
  @ [ ("total_s", seconds (total_ns m)) ]

let metrics_to_string m =
  Printf.sprintf
    "phase timings: execute %.3fs  solve %.3fs  lower %.3fs  merge %.3fs  (total %.3fs)"
    (seconds m.execute_ns) (seconds m.solve_ns) (seconds m.lower_ns) (seconds m.merge_ns)
    (seconds (total_ns m))

let emit_phase_totals sink m =
  List.iter (fun p -> emit sink (Phase_total { phase = p; dur_ns = phase_ns m p })) phases

let hist_line name h =
  Printf.sprintf "%s latency: p50 <=%s  p90 <=%s  p99 <=%s  max %s  (%d samples)" name
    (ns_to_string (Hist.p50 h))
    (ns_to_string (Hist.p90 h))
    (ns_to_string (Hist.p99 h))
    (ns_to_string (Hist.max_ns h))
    (Hist.count h)

let latency_to_string m =
  hist_line "solve" m.solve_hist ^ "\n" ^ hist_line "run" m.run_hist

(* ---- trace summaries ------------------------------------------------------------ *)

type site_agg = {
  s_count : int;
  s_sat : int;
  s_unsat : int;
  s_unknown : int;
  s_hits : int;
  s_sliced : int;
  s_ns : int64;
}

type target_agg = {
  t_slices : int;
  t_runs : int;
  t_ns : int64;
  t_retired : string option;
}

type summary = {
  total_events : int;
  runs : int;
  branches : int;
  driver_branches : int;
  solves : int;
  solve_hits : int;
  solve_sat : int;
  solve_unsat : int;
  solve_unknown : int;
  solve_site_ns : int64;
  exec_run_ns : int64;
  inputs_updated : int;
  restarts : int;
  bugs : int;
  workers : int;
  crashes : int;
  phase_ns : (phase * int64) list;
  sites : ((string * int) * site_agg) list;
  timeline : cover_point list;
  site_dirs : ((string * int) * (bool * bool)) list;
  run_hist : Hist.t;
  solve_hist : Hist.t;
  targets : (string * target_agg) list;
  rounds : int;
}

and cover_point = {
  cp_run : int;
  cp_covered : int;
  cp_ns : int64;
}

let empty_agg =
  { s_count = 0; s_sat = 0; s_unsat = 0; s_unknown = 0; s_hits = 0; s_sliced = 0; s_ns = 0L }

let empty_target = { t_slices = 0; t_runs = 0; t_ns = 0L; t_retired = None }

let summarize evs =
  let runs = ref 0 and branches = ref 0 and solves = ref 0 and hits = ref 0 in
  let driver_branches = ref 0 in
  let sat = ref 0 and unsat = ref 0 and unknown = ref 0 in
  let solve_ns = ref 0L and exec_ns = ref 0L in
  let inputs = ref 0 and restarts = ref 0 and bugs = ref 0 and workers = ref 0 in
  let crashes = ref 0 and rounds = ref 0 in
  let phase_tbl : (phase, int64) Hashtbl.t = Hashtbl.create 4 in
  let site_tbl : (string * int, site_agg) Hashtbl.t = Hashtbl.create 32 in
  let dirs = Coverage.create () in
  let run_hist = Hist.create () and solve_hist = Hist.create () in
  (* Target -> (first-seen index, aggregate): ties in total time keep
     first-seen order. *)
  let target_tbl : (string, int * target_agg) Hashtbl.t = Hashtbl.create 32 in
  let update_target target f =
    let index, agg =
      match Hashtbl.find_opt target_tbl target with
      | Some entry -> entry
      | None -> (Hashtbl.length target_tbl, empty_target)
    in
    Hashtbl.replace target_tbl target (index, f agg)
  in
  let points = ref [] in
  let count = ref 0 in
  List.iter
    (fun ev ->
      incr count;
      match ev with
      | Run_start _ -> incr runs
      | Run_end { dur_ns; _ } ->
        exec_ns := Int64.add !exec_ns dur_ns;
        Hist.add run_hist dur_ns
      | Branch_taken { fn; pc; dir } ->
        if is_harness_site fn then incr driver_branches
        else begin
          incr branches;
          Coverage.add dirs (fn, pc, dir)
        end
      | Solve_query { fn; pc; result; dur_ns; cache_hit; sliced } ->
        incr solves;
        if cache_hit then incr hits;
        (match result with
         | R_sat -> incr sat
         | R_unsat -> incr unsat
         | R_unknown -> incr unknown);
        solve_ns := Int64.add !solve_ns dur_ns;
        Hist.add solve_hist dur_ns;
        let prev = Option.value ~default:empty_agg (Hashtbl.find_opt site_tbl (fn, pc)) in
        Hashtbl.replace site_tbl (fn, pc)
          { s_count = prev.s_count + 1;
            s_sat = (prev.s_sat + if result = R_sat then 1 else 0);
            s_unsat = (prev.s_unsat + if result = R_unsat then 1 else 0);
            s_unknown = (prev.s_unknown + if result = R_unknown then 1 else 0);
            s_hits = (prev.s_hits + if cache_hit then 1 else 0);
            s_sliced = prev.s_sliced + sliced;
            s_ns = Int64.add prev.s_ns dur_ns }
      | Input_update _ -> incr inputs
      | Restart _ -> incr restarts
      | Bug_found _ -> incr bugs
      | Worker_spawn _ -> incr workers
      | Worker_drain _ -> ()
      | Worker_crash _ -> incr crashes
      | Checkpoint_saved _ -> ()
      | Phase_total { phase; dur_ns } ->
        let prev = Option.value ~default:0L (Hashtbl.find_opt phase_tbl phase) in
        Hashtbl.replace phase_tbl phase (Int64.add prev dur_ns)
      | Cover_point { run; covered; elapsed_ns } ->
        points := { cp_run = run; cp_covered = covered; cp_ns = elapsed_ns } :: !points
      | Slice_end { target; runs; dur_ns; _ } ->
        update_target target (fun a ->
            { a with
              t_slices = a.t_slices + 1;
              t_runs = a.t_runs + runs;
              t_ns = Int64.add a.t_ns dur_ns })
      | Target_retired { target; reason } ->
        update_target target (fun a -> { a with t_retired = Some reason })
      | Round_end _ -> incr rounds
      | Target_scheduled _ -> ()
      | Breaker_open _ | Breaker_close _ ->
        (* Breaker transitions: surfaced via [Solver.stats], not here. *)
        ())
    evs;
  let phase_ns =
    List.map
      (fun p -> (p, Option.value ~default:0L (Hashtbl.find_opt phase_tbl p)))
      phases
  in
  let sites =
    Hashtbl.fold (fun site agg acc -> (site, agg) :: acc) site_tbl []
    |> List.sort (fun (sa, a) (sb, b) ->
           match Int64.compare b.s_ns a.s_ns with 0 -> compare sa sb | c -> c)
  in
  let targets =
    Hashtbl.fold (fun name (index, agg) acc -> (index, (name, agg)) :: acc) target_tbl []
    |> List.sort (fun (ia, (_, a)) (ib, (_, b)) ->
           match Int64.compare b.t_ns a.t_ns with 0 -> compare ia ib | c -> c)
    |> List.map snd
  in
  { total_events = !count;
    runs = !runs;
    branches = !branches;
    driver_branches = !driver_branches;
    solves = !solves;
    solve_hits = !hits;
    solve_sat = !sat;
    solve_unsat = !unsat;
    solve_unknown = !unknown;
    solve_site_ns = !solve_ns;
    exec_run_ns = !exec_ns;
    inputs_updated = !inputs;
    restarts = !restarts;
    bugs = !bugs;
    workers = !workers;
    crashes = !crashes;
    phase_ns;
    sites;
    timeline = List.rev !points;
    site_dirs = Coverage.to_list dirs;
    run_hist;
    solve_hist;
    targets;
    rounds = !rounds }

(* ---- coverage-over-time views ------------------------------------------------- *)

let plateau s =
  match s.timeline with
  | [] -> None
  | points ->
    let last_run = ref 0 and last_gain = ref 0 and prev = ref 0 in
    List.iter
      (fun p ->
        last_run := p.cp_run;
        if p.cp_covered > !prev then last_gain := p.cp_run;
        prev := p.cp_covered)
      points;
    Some (!last_run, !last_run - !last_gain)

let frontier_sites s =
  List.filter_map
    (fun (site, (taken, fallthrough)) ->
      match (taken, fallthrough) with
      | true, true | false, false -> None
      | one_dir_taken, _ ->
        let attempts =
          match List.assoc_opt site s.sites with
          | Some a -> a.s_count
          | None -> 0
        in
        (* The missing direction is the one not yet seen. *)
        Some (site, not one_dir_taken, attempts))
    s.site_dirs
  |> List.sort (fun (sa, _, a) (sb, _, b) ->
         match compare b a with 0 -> compare sa sb | c -> c)

let distinct_branch_dirs s =
  List.fold_left
    (fun acc (_, (taken, fallthrough)) ->
      acc + (if taken then 1 else 0) + if fallthrough then 1 else 0)
    0 s.site_dirs

let summary_to_string s =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf
       "trace: %d events (%d runs, %d branches + %d driver branches, %d solver queries, %d \
        inputs updated, %d restarts, %d bugs, %d workers)\n"
       s.total_events s.runs s.branches s.driver_branches s.solves s.inputs_updated
       s.restarts s.bugs s.workers);
  (* Crash count only appears when something actually crashed, keeping
     crash-free trace summaries byte-identical to earlier builds. *)
  if s.crashes > 0 then
    Buffer.add_string buf (Printf.sprintf "worker crashes: %d\n" s.crashes);
  Buffer.add_string buf
    (Printf.sprintf "solver: %d real queries + %d cache hits (%d sat, %d unsat, %d unknown)\n"
       (s.solves - s.solve_hits) s.solve_hits s.solve_sat s.solve_unsat s.solve_unknown);
  let total = List.fold_left (fun acc (_, ns) -> Int64.add acc ns) 0L s.phase_ns in
  Buffer.add_string buf "phases:\n";
  List.iter
    (fun (p, ns) ->
      let pct =
        if Int64.compare total 0L > 0 then
          100.0 *. Int64.to_float ns /. Int64.to_float total
        else 0.0
      in
      Buffer.add_string buf
        (Printf.sprintf "  %-8s %10.3fms  (%5.1f%%)\n" (phase_to_string p) (seconds ns *. 1e3)
           pct))
    s.phase_ns;
  Buffer.add_string buf
    (Printf.sprintf "per-run execution time (from run_end): %.3fms\n"
       (seconds s.exec_run_ns *. 1e3));
  if s.sites <> [] then begin
    Buffer.add_string buf "solve sites (by total solver time):\n";
    List.iter
      (fun ((fn, pc), a) ->
        Buffer.add_string buf
          (Printf.sprintf
             "  %-28s %5d queries (%d sat, %d unsat, %d unknown), %d hits, %d sliced, \
              %.3fms\n"
             (Printf.sprintf "%s:%d" fn pc)
             a.s_count a.s_sat a.s_unsat a.s_unknown a.s_hits a.s_sliced
             (seconds a.s_ns *. 1e3)))
      s.sites
  end;
  (match plateau s with
   | None -> ()
   | Some (last_run, stale) ->
     (* Directed (and parallel) traces carry Branch_taken events, whose
        distinct-direction count is the merged coverage; random-testing
        traces run uninstrumented and carry only the Cover_point curve,
        so fall back to its final sample there. *)
     let covered =
       if s.site_dirs <> [] then distinct_branch_dirs s
       else match List.rev s.timeline with p :: _ -> p.cp_covered | [] -> 0
     in
     Buffer.add_string buf
       (Printf.sprintf
          "coverage: %d branch directions after %d runs (%d cover points); plateau: %d \
           runs since the last new direction\n"
          covered last_run (List.length s.timeline) stale));
  (match frontier_sites s with
   | [] -> ()
   | frontier ->
     Buffer.add_string buf "frontier sites (one direction missing, by solver attempts):\n";
     List.iter
       (fun ((fn, pc), missing_taken, attempts) ->
         Buffer.add_string buf
           (Printf.sprintf "  %-28s missing %s, %d solve attempts\n"
              (Printf.sprintf "%s:%d" fn pc)
              (if missing_taken then "taken-dir" else "fall-dir")
              attempts))
       frontier);
  Buffer.contents buf

(* ---- configuration --------------------------------------------------------------- *)

type config = {
  sink : sink;
  worker_buffer : int;
  status_path : string option;
  status_every : int;
}

let default_config =
  { sink = null; worker_buffer = 1 lsl 20; status_path = None; status_every = 100 }

let with_sink sink = { default_config with sink }
