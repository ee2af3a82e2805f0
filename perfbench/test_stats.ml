(* Tests of the benchmark's own arithmetic: the tail-percentile rule,
   the attribution residual, the known-answer comparator and the
   counter drift check. *)

module S = Perfbench_stats.Stats

let floats = Alcotest.(float 1e-9)
let range n = List.init n (fun k -> float_of_int (k + 1))

let test_median () =
  Alcotest.check floats "odd" 3.0 (S.median [ 5.0; 1.0; 3.0 ]);
  Alcotest.check floats "even" 2.5 (S.median [ 4.0; 1.0; 3.0; 2.0 ])

(* Highest percentile with at least ten samples beyond its rank. *)
let test_tail_rule () =
  let tail n = S.tail (range n) in
  Alcotest.(check (option (pair floats floats))) "19 samples: none" None (tail 19);
  Alcotest.(check (option (pair floats floats))) "20: median" (Some (50.0, 10.0)) (tail 20);
  Alcotest.(check (option (pair floats floats))) "99: median" (Some (50.0, 50.0)) (tail 99);
  Alcotest.(check (option (pair floats floats))) "100: p90" (Some (90.0, 90.0)) (tail 100);
  Alcotest.(check (option (pair floats floats))) "199: p90" (Some (90.0, 180.0)) (tail 199);
  Alcotest.(check (option (pair floats floats))) "200: p95" (Some (95.0, 190.0)) (tail 200);
  Alcotest.(check (option (pair floats floats))) "1000: p99" (Some (99.0, 990.0)) (tail 1000);
  Alcotest.(check (option (pair floats floats))) "10000: p99.9" (Some (99.9, 9990.0)) (tail 10000);
  (* Input order does not matter. *)
  Alcotest.(check (option (pair floats floats)))
    "unsorted" (Some (90.0, 90.0))
    (S.tail (List.rev (range 100)))

let test_summary_fallback () =
  let d = S.summarize [ 3.0; 1.0; 2.0 ] in
  Alcotest.check floats "p50" 2.0 d.S.p50;
  Alcotest.check floats "tail repeats the median" 2.0 d.S.tail_value;
  Alcotest.check floats "and says 50" 50.0 d.S.tail_pct;
  Alcotest.(check int) "samples" 3 d.S.samples;
  let d = S.summarize (range 1000) in
  Alcotest.check floats "p99 of 1..1000" 990.0 d.S.tail_value;
  Alcotest.(check int) "samples" 1000 d.S.samples

let test_residual () =
  Alcotest.check floats "wall minus layers" 0.25 (S.residual ~wall:2.0 [ 1.0; 0.5; 0.25 ]);
  let r = S.residual ~wall:1.0 [ 0.7; 0.4 ] in
  Alcotest.check floats "double counting goes negative" (-0.1) r;
  Alcotest.(check bool) "-10% fails a 5% floor" false (S.residual_ok ~wall:1.0 ~below:0.05 ~above:0.15 r);
  Alcotest.(check bool) "-10% passes a 12% floor" true (S.residual_ok ~wall:1.0 ~below:0.12 ~above:0.15 r);
  Alcotest.(check bool) "+20% fails a 15% ceiling" false
    (S.residual_ok ~wall:1.0 ~below:0.05 ~above:0.15 0.2)

let answer = Alcotest.testable (fun ppf a -> Format.pp_print_string ppf (S.answer_to_string a)) ( = )

let test_known_answers () =
  let expected = [ ("ns_none", S.Bug); ("ns_buggy", S.Bug); ("ns_correct", S.Complete) ] in
  Alcotest.(check (list (triple string answer answer)))
    "right answers" []
    (S.mismatches ~expected
       ~observed:[ ("ns_correct", S.Complete); ("ns_none", S.Bug); ("ns_buggy", S.Bug) ]);
  (* A deliberately wrong verdict: the buggy fix reported complete. *)
  Alcotest.(check (list (triple string answer answer)))
    "wrong verdict" [ ("ns_buggy", S.Bug, S.Complete) ]
    (S.mismatches ~expected
       ~observed:[ ("ns_none", S.Bug); ("ns_buggy", S.Complete); ("ns_correct", S.Complete) ]);
  Alcotest.(check (list (triple string answer answer)))
    "missing and failed" [ ("ns_none", S.Bug, S.Failed "missing"); ("ns_correct", S.Complete, S.No_bug) ]
    (S.mismatches ~expected ~observed:[ ("ns_buggy", S.Bug); ("ns_correct", S.No_bug) ]);
  (* Campaign targets: no bug planted means any non-bug retirement. *)
  Alcotest.(check (list (triple string answer answer)))
    "no-bug targets" [ ("g", S.No_bug, S.Failed "quarantined") ]
    (S.mismatches
       ~expected:[ ("e", S.No_bug); ("f", S.No_bug); ("g", S.No_bug) ]
       ~observed:[ ("e", S.Complete); ("f", S.No_bug); ("g", S.Failed "quarantined") ])

let test_drift () =
  let rep runs steps = [ ("runs", runs); ("machine.steps", steps) ] in
  Alcotest.(check (list string)) "steady" [] (S.drift [ rep 5 9; rep 5 9; rep 5 9 ]);
  Alcotest.(check (list string)) "steps drift" [ "machine.steps" ] (S.drift [ rep 5 9; rep 5 9; rep 5 8 ]);
  Alcotest.(check (list string)) "absent counts as drift" [ "runs" ]
    (S.drift [ rep 5 9; [ ("machine.steps", 9) ] ])

let () =
  Alcotest.run "perfbench"
    [ ( "stats",
        [ Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "tail percentile rule" `Quick test_tail_rule;
          Alcotest.test_case "summary fallback" `Quick test_summary_fallback;
          Alcotest.test_case "attribution residual" `Quick test_residual;
          Alcotest.test_case "known-answer comparator" `Quick test_known_answers;
          Alcotest.test_case "counter drift" `Quick test_drift ] ) ]
