(* The benchmark's own arithmetic, kept apart from the measuring code so
   its tests can pin it: medians, the tail-percentile rule, the layer
   attribution residual, the known-answer comparator and the counter
   drift check. *)

let sorted xs = List.sort compare xs

let median = function
  | [] -> invalid_arg "Stats.median: no samples"
  | xs ->
    let a = Array.of_list (sorted xs) in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Percentiles in tenths of a percent, so 99.9 is exact. *)
let tail_candidates = [ 999; 990; 950; 900; 500 ]

(* Nearest rank: the sample at rank ceil(p·n) of the sorted list. *)
let rank ~tenths n = ((tenths * n) + 999) / 1000

let nearest_rank ~tenths xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.nearest_rank: no samples";
  a.(max 0 (rank ~tenths n - 1))

let min_beyond = 10

(* The tail rule: the highest candidate percentile that leaves at least
   [min_beyond] samples strictly beyond its rank, as [(percent, value)].
   [None] when there are too few samples for even the median. *)
let tail xs =
  let n = List.length xs in
  match List.find_opt (fun t -> n - rank ~tenths:t n >= min_beyond) tail_candidates with
  | None -> None
  | Some t -> Some (float_of_int t /. 10.0, nearest_rank ~tenths:t xs)

(* What the benchmark reports for one latency distribution: median,
   tail percentile and its value, and the sample count. Below
   [2 * min_beyond] samples no tail qualifies; the tail then repeats
   the median and its percent reads 50, and the sample count says why. *)
type summary = { p50 : float; tail_pct : float; tail_value : float; samples : int }

let summarize = function
  | [] -> { p50 = 0.0; tail_pct = 0.0; tail_value = 0.0; samples = 0 }
  | xs ->
    let p50 = median xs in
    let tail_pct, tail_value = Option.value (tail xs) ~default:(50.0, p50) in
    { p50; tail_pct; tail_value; samples = List.length xs }

(* Layer attribution: whatever of the traced wall clock the layers'
   self-times do not cover. *)
let residual ~wall self_times = wall -. List.fold_left ( +. ) 0.0 self_times

(* The residual must lie in [-below, above] as shares of the wall clock:
   a negative residual beyond noise means two layers counted the same
   time, a large positive one that a layer went unmeasured. *)
let residual_ok ~wall ~below ~above r = r >= -.below *. wall && r <= above *. wall

(* ---- known answers ---- *)

type answer =
  | Bug (* the search must stop on a bug *)
  | Complete (* the search must prove the program exhausted, flags intact *)
  | No_bug (* anything but a bug or a failure: complete, saturated, capped *)
  | Failed of string (* observed only: raised, quarantined, unfinished... *)

let answer_to_string = function
  | Bug -> "bug"
  | Complete -> "complete"
  | No_bug -> "no bug"
  | Failed why -> "failed (" ^ why ^ ")"

let agrees ~expected ~observed =
  match (expected, observed) with
  | Bug, Bug | Complete, Complete -> true
  | No_bug, (Complete | No_bug) -> true
  | _ -> false

(* Every expected name with an observed answer that disagrees (a name
   never observed disagrees as [Failed "missing"]), in [expected]'s
   order, as [(name, expected, observed)]. *)
let mismatches ~expected ~observed =
  List.filter_map
    (fun (name, exp) ->
      let obs =
        match List.assoc_opt name observed with
        | Some o -> o
        | None -> Failed "missing"
      in
      if agrees ~expected:exp ~observed:obs then None else Some (name, exp, obs))
    expected

(* ---- deterministic counters ---- *)

(* Names of counters whose value is not the same in every repetition;
   a counter absent from some repetition drifts too. *)
let drift (reps : (string * int) list list) =
  match reps with
  | [] -> []
  | first :: _ ->
    let names = List.sort_uniq compare (List.concat_map (List.map fst) reps) in
    List.filter
      (fun name ->
        let v0 = List.assoc_opt name first in
        List.exists (fun rep -> List.assoc_opt name rep <> v0) reps)
      names
