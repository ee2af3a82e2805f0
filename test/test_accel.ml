(* Solver acceleration layer: independence slicing of path constraints
   and the solve cache. The key invariant throughout: both
   optimisations are *exact* — verdicts, bug sets and coverage must be
   identical with and without them. *)

open Zarith_lite

let zi = Zint.of_int

(* ---- cache canonicalisation -------------------------------------------------- *)

let c_eq v k =
  Symbolic.Constr.make
    (Symbolic.Linexpr.add_const (zi (-k)) (Symbolic.Linexpr.var v))
    Symbolic.Constr.Eq0

let c_le v k =
  Symbolic.Constr.make
    (Symbolic.Linexpr.add_const (zi (-k)) (Symbolic.Linexpr.var v))
    Symbolic.Constr.Le0

let key cs = (Solver.Cache.canonical cs).Solver.Cache.key
let same_key a b = Solver.Cache.Key.equal (key a) (key b)

let test_canonical_key () =
  let a = c_eq 0 10 and b = c_le 1 3 in
  Alcotest.(check bool) "order and duplicates ignored" true (same_key [ a; b ] [ b; a; b; a ]);
  Alcotest.(check int) "hash agrees"
    (Solver.Cache.Key.hash (key [ a; b ]))
    (Solver.Cache.Key.hash (key [ b; a; b; a ]));
  Alcotest.(check bool) "different set, different key" false (same_key [ a; b ] [ a; c_le 1 4 ])

(* Regression: syntactically different spellings of the same constraint
   set must canonicalise to the same key — commuted term order, scaled
   coefficients, Lt-vs-Le spelling and variable renaming all used to
   produce distinct keys (and therefore spurious cache misses). *)
let test_canonical_key_normalises () =
  let lx terms k =
    List.fold_left
      (fun acc (v, c) ->
        Symbolic.Linexpr.add acc (Symbolic.Linexpr.scale (zi c) (Symbolic.Linexpr.var v)))
      (Symbolic.Linexpr.const (zi k)) terms
  in
  let mk terms k op = Symbolic.Constr.make (lx terms k) op in
  (* Commuted equations: a - b = 0 and b - a = 0. *)
  Alcotest.(check bool) "a-b=0 equals b-a=0" true
    (same_key [ mk [ (0, 1); (1, -1) ] 0 Symbolic.Constr.Eq0 ]
       [ mk [ (1, 1); (0, -1) ] 0 Symbolic.Constr.Eq0 ]);
  (* Scaled inequalities: 2a - 4 <= 0 and a - 2 <= 0. *)
  Alcotest.(check bool) "2a<=4 equals a<=2" true
    (same_key [ mk [ (0, 2) ] (-4) Symbolic.Constr.Le0 ]
       [ mk [ (0, 1) ] (-2) Symbolic.Constr.Le0 ]);
  (* Integer Lt/Le spelling: a - 3 < 0 and a - 2 <= 0. *)
  Alcotest.(check bool) "a<3 equals a<=2" true
    (same_key [ mk [ (0, 1) ] (-3) Symbolic.Constr.Lt0 ]
       [ mk [ (0, 1) ] (-2) Symbolic.Constr.Le0 ]);
  (* Variable renaming: x5 = 10 alone is the same shape as x0 = 10. *)
  Alcotest.(check bool) "x5=10 equals x0=10" true (same_key [ c_eq 5 10 ] [ c_eq 0 10 ]);
  (* ... but renaming respects sharing: {x0=1, x0<=2} is not {x0=1, x1<=2}. *)
  Alcotest.(check bool) "shared var distinguishes" false
    (same_key [ c_eq 0 1; c_le 0 2 ] [ c_eq 0 1; c_le 1 2 ]);
  (* Negated disequalities: a - b != 0 and b - a != 0. *)
  Alcotest.(check bool) "a<>b equals b<>a" true
    (same_key [ mk [ (0, 1); (1, -1) ] 0 Symbolic.Constr.Ne0 ]
       [ mk [ (1, 1); (0, -1) ] 0 Symbolic.Constr.Ne0 ])

(* Renamed hits must hand back models over the *caller's* variables,
   not the canonical ones. *)
let test_cache_renamed_model () =
  let cache = Solver.Cache.create () in
  Solver.Cache.add cache (Solver.Cache.canonical [ c_eq 0 10 ])
    (Solver.Cache.Sat [ (0, zi 10) ]);
  match Solver.Cache.find cache (Solver.Cache.canonical [ c_eq 7 10 ]) with
  | Some (Solver.Cache.Sat [ (7, z) ], 0) ->
    Alcotest.(check int) "model remapped to x7" 10 (Zint.to_int z)
  | Some _ -> Alcotest.fail "hit with wrong model shape"
  | None -> Alcotest.fail "renamed query missed"

let test_cache_roundtrip () =
  let cache = Solver.Cache.create () in
  let keyed = Solver.Cache.canonical [ c_eq 0 10 ] in
  Alcotest.(check bool) "miss on empty" true (Solver.Cache.find cache keyed = None);
  Solver.Cache.add cache keyed (Solver.Cache.Sat [ (0, zi 10) ]);
  (match Solver.Cache.find cache (Solver.Cache.canonical [ c_eq 0 10 ]) with
   | Some (Solver.Cache.Sat [ (0, z) ], 0) -> Alcotest.(check int) "model value" 10 (Zint.to_int z)
   | _ -> Alcotest.fail "expected cached Sat model");
  let ukeyed = Solver.Cache.canonical [ c_eq 0 1; c_eq 0 2 ] in
  Solver.Cache.add cache ukeyed Solver.Cache.Unsat;
  Alcotest.(check bool) "unsat cached" true
    (Solver.Cache.find cache ukeyed = Some (Solver.Cache.Unsat, 0));
  Alcotest.(check int) "two entries" 2 (Solver.Cache.length cache)

(* ---- shared cache ------------------------------------------------------------- *)

(* Several domains hammer one shared cache with overlapping canonical
   keys: domain [d] asks [x = k] over its own variable [x_(100d+k)], so
   every domain's query for a given [k] canonicalises to the same key.
   A miss publishes the model a solver would return. Every hit must
   come back over the asking domain's own variable with the right
   value, and each key keeps exactly one publisher. *)
let test_shared_cache_domains () =
  let shared = Solver.Cache.create () in
  let n_domains = 4 and n_keys = 50 and rounds = 3 in
  let work d () =
    let cache = Solver.Cache.share shared ~worker:d in
    let seen = Hashtbl.create n_keys and missed = Hashtbl.create n_keys in
    let bad = ref 0 and peer_hits = ref 0 in
    for r = 0 to rounds - 1 do
      for i = 0 to n_keys - 1 do
        (* Domains walk the keys in different orders so they collide. *)
        let k = (i + (d * 13) + r) mod n_keys in
        let v = (100 * d) + k in
        let keyed = Solver.Cache.canonical [ c_eq v k ] in
        match Solver.Cache.find cache keyed with
        | None ->
          Hashtbl.replace missed k ();
          Solver.Cache.add cache keyed (Solver.Cache.Sat [ (v, zi k) ])
        | Some (Solver.Cache.Sat [ (v', z) ], publisher) ->
          if v' <> v || Zint.to_int z <> k then incr bad;
          if publisher <> d then incr peer_hits;
          (match Hashtbl.find_opt seen k with
           | Some p when p <> publisher -> incr bad
           | _ -> Hashtbl.replace seen k publisher)
        | Some _ -> incr bad
      done
    done;
    (!bad, !peer_hits, seen, missed)
  in
  let results =
    Array.map Domain.join (Array.init n_domains (fun d -> Domain.spawn (work d)))
  in
  Array.iteri
    (fun d (bad, _, _, _) ->
      Alcotest.(check int) (Printf.sprintf "domain %d: every hit maps back" d) 0 bad)
    results;
  Alcotest.(check int) "one entry per canonical key" n_keys (Solver.Cache.length shared);
  (* Every domain that hit key k saw the same publisher, and that
     publisher is a domain that missed k and published it. *)
  for k = 0 to n_keys - 1 do
    let owners =
      Array.to_list results
      |> List.filter_map (fun (_, _, seen, _) -> Hashtbl.find_opt seen k)
      |> List.sort_uniq compare
    in
    match owners with
    | [ p ] ->
      let _, _, _, missed = results.(p) in
      Alcotest.(check bool) (Printf.sprintf "key %d published by a misser" k) true
        (Hashtbl.mem missed k)
    | owners ->
      Alcotest.failf "key %d: %d distinct publishers seen" k (List.length owners)
  done;
  (* One entry per key and four domains asking for every key: at least
     three of them must have been answered by a peer's entry. *)
  let peer_total = Array.fold_left (fun acc (_, p, _, _) -> acc + p) 0 results in
  Alcotest.(check bool) "peers answered queries" true (peer_total >= 3 * n_keys)

(* [Solver.shared_hits] counts a hit only when another worker published
   the entry: driven through [Solve_pc], the publishing worker's own
   re-query is a plain hit, a peer's query is a shared one. *)
let test_shared_hits_count_peers () =
  let shared = Solver.Cache.create () in
  let solve ~worker stats =
    let im = Dart.Inputs.create () in
    Dart.Inputs.set im ~id:0 5;
    ignore
      (Dart.Solve_pc.solve
         ~cache:(Solver.Cache.share shared ~worker)
         ~strategy:Dart.Strategy.Dfs ~rng:(Dart_util.Prng.create 1) ~stats ~im
         ~stack:[| { Dart.Concolic.br_branch = true; br_done = false } |]
         ~path_constraint:[| Some (c_eq 0 5) |] ())
  in
  let s0 = Solver.create_stats () and s1 = Solver.create_stats () in
  solve ~worker:0 s0;
  Alcotest.(check int) "first query misses" 1 (Solver.cache_misses s0);
  solve ~worker:0 s0;
  Alcotest.(check int) "own entry: a hit" 1 (Solver.cache_hits s0);
  Alcotest.(check int) "own entry: not shared" 0 (Solver.shared_hits s0);
  solve ~worker:1 s1;
  Alcotest.(check int) "peer's entry: a hit" 1 (Solver.cache_hits s1);
  Alcotest.(check int) "peer's entry: shared" 1 (Solver.shared_hits s1);
  Alcotest.(check int) "peer never reached the solver" 0 (Solver.queries s1)

(* ---- slicing: dependency closure --------------------------------------------- *)

let lin terms k =
  List.fold_left
    (fun acc (v, c) ->
      Symbolic.Linexpr.add acc (Symbolic.Linexpr.scale (zi c) (Symbolic.Linexpr.var v)))
    (Symbolic.Linexpr.const (zi k)) terms

let test_slice_components () =
  (* pivot over x0; prefix has one constraint chained to x0 through x1
     and one constraint over an unrelated x9. *)
  let pivot = c_eq 0 1 in
  let chain01 = Symbolic.Constr.make (lin [ (0, 1); (1, -1) ] 0) Symbolic.Constr.Le0 in
  let alone9 = c_le 9 5 in
  let kept, dropped = Dart.Solve_pc.slice ~pivot ~prefix:[ chain01; alone9 ] in
  Alcotest.(check int) "one constraint sliced away" 1 dropped;
  Alcotest.(check int) "pivot + chained kept" 2 (List.length kept);
  Alcotest.(check bool) "pivot kept first" true (Symbolic.Constr.equal (List.hd kept) pivot);
  Alcotest.(check bool) "unrelated dropped" true
    (not (List.exists (Symbolic.Constr.equal alone9) kept));
  (* Transitive closure: x0-x1, x1-x2 pulls the x2 constraint in. *)
  let chain12 = Symbolic.Constr.make (lin [ (1, 1); (2, -1) ] 0) Symbolic.Constr.Le0 in
  let kept, dropped =
    Dart.Solve_pc.slice ~pivot ~prefix:[ chain01; chain12; alone9; c_eq 2 7 ]
  in
  Alcotest.(check int) "only x9 dropped" 1 dropped;
  Alcotest.(check int) "closure kept" 4 (List.length kept)

let test_slice_preserves_im () =
  (* Flipping the deepest branch (over x1) must not disturb the
     unrelated x0, which stays at its IM value. *)
  let im = Dart.Inputs.create () in
  Dart.Inputs.set im ~id:0 5;
  Dart.Inputs.set im ~id:1 6;
  let stack =
    [| { Dart.Concolic.br_branch = true; br_done = false };
       { Dart.Concolic.br_branch = true; br_done = false } |]
  in
  let path_constraint = [| Some (c_eq 0 5); Some (c_eq 1 6) |] in
  let stats = Solver.create_stats () in
  let next =
    Dart.Solve_pc.solve ~slicing:true ~strategy:Dart.Strategy.Dfs
      ~rng:(Dart_util.Prng.create 1) ~stats ~im ~stack ~path_constraint ()
  in
  (match next with
   | Dart.Solve_pc.Next_run stack' ->
     Alcotest.(check int) "stack truncated to flip" 2 (Array.length stack');
     Alcotest.(check bool) "deepest flipped" false stack'.(1).Dart.Concolic.br_branch
   | Dart.Solve_pc.Exhausted _ -> Alcotest.fail "x1 <> 6 is satisfiable");
  Alcotest.(check (option int)) "x0 untouched" (Some 5) (Dart.Inputs.value_of im 0);
  (match Dart.Inputs.value_of im 1 with
   | Some v -> Alcotest.(check bool) "x1 re-solved away from 6" true (v <> 6)
   | None -> Alcotest.fail "x1 must be set");
  Alcotest.(check int) "prefix constraint sliced away" 1
    (Solver.constraints_sliced_away stats)

(* ---- end-to-end: ablation combos agree --------------------------------------- *)

let opts ?(depth = 1) ?(max_runs = 20_000) ~use_slicing ~use_cache () =
  Dart.Driver.Options.make ~depth ~max_runs ~use_slicing ~use_cache ()

let combos = [ (true, true); (true, false); (false, true); (false, false) ]

let run_combo ?depth ?max_runs (src, toplevel) (use_slicing, use_cache) =
  Dart.Driver.test_source
    ~options:(opts ?depth ?max_runs ~use_slicing ~use_cache ())
    ~toplevel src

let fingerprint (r : Dart.Driver.report) =
  let verdict =
    match r.Dart.Driver.verdict with
    | Dart.Driver.Bug_found _ -> "bug"
    | Dart.Driver.Complete -> "complete"
    | Dart.Driver.Budget_exhausted -> "budget"
    | Dart.Driver.Time_exhausted -> "time"
    | Dart.Driver.Interrupted -> "interrupted"
  in
  ( verdict,
    List.map Dart.Driver.bug_key r.Dart.Driver.bugs,
    List.sort compare r.Dart.Driver.coverage_sites )

let test_ablation_equivalence () =
  let nested =
    ({| void f(int a, int b) { if (a == 1) { if (b == 2) { if (a == 3) abort(); } } } |}, "f")
  in
  let step3 = ({| void step(int m) { if (m == 1) { m = 0; } } |}, "step") in
  let cases =
    [ ("2.1", Workloads.Paper_examples.section_2_1, 1);
      ("2.4", Workloads.Paper_examples.section_2_4, 1);
      ("ac", Workloads.Paper_examples.ac_controller, 2);
      ("eq", Workloads.Paper_examples.eq_filter, 1);
      ("nested", nested, 1);
      ("step3", step3, 3) ]
  in
  List.iter
    (fun (name, case, depth) ->
      let reference = fingerprint (run_combo ~depth case (false, false)) in
      List.iter
        (fun combo ->
          let got = fingerprint (run_combo ~depth case combo) in
          let sl, ca = combo in
          Alcotest.(check bool)
            (Printf.sprintf "%s: slicing=%b cache=%b matches baseline" name sl ca)
            true (got = reference))
        combos)
    cases

let test_unsat_slicing_complete () =
  (* a == 3 under prefix a == 1 is Unsat; slicing must still prove it
     (the pivot's own component keeps the a-constraints) and DFS must
     terminate Complete, with the unrelated b-constraint sliced away. *)
  let src = {| void f(int a, int b) { if (a == 1) { if (b == 2) { if (a == 3) abort(); } } } |} in
  List.iter
    (fun use_slicing ->
      let options = opts ~use_slicing ~use_cache:false () in
      let r = Dart.Driver.test_source ~options ~toplevel:"f" src in
      (match r.Dart.Driver.verdict with
       | Dart.Driver.Complete -> ()
       | _ -> Alcotest.failf "slicing=%b: expected Complete" use_slicing);
      if use_slicing then
        Alcotest.(check bool) "some constraint sliced away" true
          (Solver.constraints_sliced_away r.Dart.Driver.solver_stats > 0))
    [ true; false ]

(* ---- cache effectiveness ------------------------------------------------------ *)

let test_cache_hits_and_query_reduction () =
  (* Depth-3 driver over independent per-call inputs: sibling subtrees
     re-issue the same sliced queries, so slicing + caching must
     answer some from the cache and reduce solver queries. *)
  let case = ({| void step(int m) { if (m == 1) { m = 0; } } |}, "step") in
  let accel = run_combo ~depth:3 case (true, true) in
  let plain = run_combo ~depth:3 case (false, false) in
  let qa = Solver.queries accel.Dart.Driver.solver_stats in
  let qp = Solver.queries plain.Dart.Driver.solver_stats in
  Alcotest.(check bool) "cache hits occurred" true
    (Solver.cache_hits accel.Dart.Driver.solver_stats > 0);
  Alcotest.(check bool)
    (Printf.sprintf "fewer queries with accel (%d < %d)" qa qp)
    true (qa < qp);
  (* With the cache on, every real solve was a recorded miss. *)
  Alcotest.(check int) "queries = cache misses" qa
    (Solver.cache_misses accel.Dart.Driver.solver_stats);
  (* Both runs explored the same 8 paths. *)
  Alcotest.(check int) "same paths" plain.Dart.Driver.paths_explored
    accel.Dart.Driver.paths_explored

let test_cache_determinism () =
  (* Bit-for-bit determinism with the cache on: identical reports from
     identical runs. *)
  let run () = run_combo ~depth:2 Workloads.Paper_examples.ac_controller (true, true) in
  let r1 = run () and r2 = run () in
  Alcotest.(check int) "same runs" r1.Dart.Driver.runs r2.Dart.Driver.runs;
  Alcotest.(check int) "same steps" r1.Dart.Driver.total_steps r2.Dart.Driver.total_steps;
  Alcotest.(check int) "same hits"
    (Solver.cache_hits r1.Dart.Driver.solver_stats)
    (Solver.cache_hits r2.Dart.Driver.solver_stats);
  Alcotest.(check bool) "same witness" true
    (match (r1.Dart.Driver.verdict, r2.Dart.Driver.verdict) with
     | Dart.Driver.Bug_found a, Dart.Driver.Bug_found b ->
       a.Dart.Driver.bug_inputs = b.Dart.Driver.bug_inputs
     | _ -> false)

let test_per_worker_caches () =
  (* Parallel workers share one cache but keep their own counters: the
     merged stats sum the per-worker counters, and jobs=1 with caching
     stays identical to the sequential driver. *)
  let src, toplevel = Workloads.Paper_examples.section_2_4 in
  let ast = Minic.Parser.parse_program src in
  let prog = Dart.Driver.prepare ~toplevel ~depth:1 ast in
  let base = Dart.Driver.Options.make ~max_runs:100 () in
  let seq = Dart.Driver.run ~options:base prog in
  let par1 = Dart.Parallel.run ~options:(Dart.Parallel.options ~jobs:1 base) prog in
  (* Structural equality would compare the wall-clock metrics records;
     the printed report carries everything deterministic. *)
  Alcotest.(check string) "jobs=1 report identical"
    (Dart.Driver.report_to_string seq)
    (Dart.Driver.report_to_string par1.Dart.Parallel.merged);
  let par4 = Dart.Parallel.run ~options:(Dart.Parallel.options ~jobs:4 base) prog in
  let merged_hits =
    List.fold_left
      (fun acc (w : Dart.Parallel.worker_report) ->
        acc + Solver.cache_hits w.Dart.Parallel.w_report.Dart.Driver.solver_stats)
      0 par4.Dart.Parallel.workers
  in
  Alcotest.(check int) "merged hits = sum of worker hits" merged_hits
    (Solver.cache_hits par4.Dart.Parallel.merged.Dart.Driver.solver_stats)

let suite =
  [ Alcotest.test_case "canonical key" `Quick test_canonical_key;
    Alcotest.test_case "canonical key normalisation" `Quick test_canonical_key_normalises;
    Alcotest.test_case "renamed cache hit" `Quick test_cache_renamed_model;
    Alcotest.test_case "cache roundtrip" `Quick test_cache_roundtrip;
    Alcotest.test_case "shared cache across domains" `Quick test_shared_cache_domains;
    Alcotest.test_case "shared hits count peers only" `Quick test_shared_hits_count_peers;
    Alcotest.test_case "slice components" `Quick test_slice_components;
    Alcotest.test_case "slice preserves IM" `Quick test_slice_preserves_im;
    Alcotest.test_case "ablation equivalence" `Quick test_ablation_equivalence;
    Alcotest.test_case "unsat under slicing" `Quick test_unsat_slicing_complete;
    Alcotest.test_case "cache hits reduce queries" `Quick test_cache_hits_and_query_reduction;
    Alcotest.test_case "cache determinism" `Quick test_cache_determinism;
    Alcotest.test_case "per-worker caches" `Quick test_per_worker_caches ]
