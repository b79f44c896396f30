(* Edge cases and combinatorial cross-checks across the stack. *)

open Graphs
module Conflict = Core.Conflict
module Priority = Core.Priority
module Family = Core.Family

let check = Alcotest.check

(* --- known MIS counts on structured graphs ---------------------------------- *)

let test_path_mis_padovan () =
  (* maximal independent sets of the path P_n obey
     M(n) = M(n-2) + M(n-3), M(1) = 1, M(2) = 2, M(3) = 2 *)
  let expected = [| 0; 1; 2; 2; 3; 4; 5; 7; 9; 12; 16 |] in
  for n = 1 to 10 do
    let rel, fds = Workload.Generator.chain n in
    let c = Conflict.build fds rel in
    check Alcotest.int
      (Printf.sprintf "path P_%d" n)
      expected.(n) (Core.Repair.count c)
  done

let test_cycle_mis_perrin () =
  (* maximal independent sets of the cycle C_n are the Perrin numbers:
     C4 -> 2, C6 -> 5, C8 -> 10, C10 -> 17 *)
  List.iter
    (fun (k, expected) ->
      let rel, fds = Workload.Generator.mutual_cycle k in
      let c = Conflict.build fds rel in
      check Alcotest.int (Printf.sprintf "cycle C_%d" (2 * k)) expected
        (Core.Repair.count c))
    [ (2, 2); (3, 5); (4, 10); (5, 17) ]

let test_clique_mis () =
  (* a width-w clique has w repairs, each a singleton *)
  List.iter
    (fun w ->
      let rel, fds = Workload.Generator.key_clusters ~groups:1 ~width:w in
      let c = Conflict.build fds rel in
      check Alcotest.int (Printf.sprintf "K_%d" w) w (Core.Repair.count c))
    [ 1; 2; 5; 9 ]

(* --- empty and tiny instances ------------------------------------------------- *)

let empty_instance () =
  let schema =
    Relational.Schema.make "R"
      [ ("A", Relational.Schema.TInt); ("B", Relational.Schema.TInt) ]
  in
  Conflict.build
    [ Constraints.Fd.make [ "A" ] [ "B" ] ]
    (Relational.Relation.of_rows schema [])

let test_empty_instance () =
  let c = empty_instance () in
  let p = Priority.empty c in
  Alcotest.(check bool) "consistent" true (Conflict.is_consistent c);
  List.iter
    (fun family ->
      match Family.repairs family c p with
      | [ s ] -> Alcotest.(check bool) "empty repair" true (Vset.is_empty s)
      | l -> Alcotest.failf "expected exactly 1 repair, got %d" (List.length l))
    Family.all_names;
  (* queries over the empty instance *)
  let q = Query.Parser.parse_exn "exists a, b. R(a, b)" in
  Alcotest.(check bool) "existential false" false
    (Core.Cqa.consistent_answer Family.Rep c p q);
  let q2 = Query.Parser.parse_exn "forall a, b. R(a, b) implies a = b" in
  Alcotest.(check bool) "universal vacuously true" true
    (Core.Cqa.consistent_answer Family.Rep c p q2);
  (* statistics *)
  let s = Core.Decompose.summary Family.C (Core.Decompose.make c p) in
  check Alcotest.int "zero tuples" 0 s.Core.Sharded.tuples;
  check Alcotest.int "one (empty) repair" 1 s.Core.Sharded.repair_count

let test_single_tuple () =
  let schema = Relational.Schema.make "R" [ ("A", Relational.Schema.TInt) ] in
  let rel = Relational.Relation.of_rows schema [ [ Relational.Value.int 7 ] ] in
  let c = Conflict.build [] rel in
  Alcotest.(check bool) "no FDs, consistent" true (Conflict.is_consistent c);
  check Alcotest.int "one repair" 1 (Core.Repair.count c);
  let q = Query.Parser.parse_exn "R(7)" in
  Alcotest.(check bool) "fact certain" true
    (Core.Cqa.consistent_answer Family.Rep c (Priority.empty c) q)

let test_all_conflicting () =
  (* one big clique: every pair conflicts; repairs are singletons and a
     score rule yields one winner *)
  let rel, fds = Workload.Generator.key_clusters ~groups:1 ~width:6 in
  let c = Conflict.build fds rel in
  let score t =
    Option.get (Relational.Value.as_int (Relational.Tuple.get t 1))
  in
  let p = Core.Pref_rules.apply_exn c (Core.Pref_rules.by_score score) in
  Alcotest.(check bool) "total" true (Priority.is_total c p);
  (match Family.repairs Family.C c p with
  | [ s ] ->
    check Alcotest.int "singleton repair" 1 (Vset.cardinal s);
    let winner = Conflict.tuple c (Vset.min_elt s) in
    check Alcotest.int "the max-score tuple wins" 5 (score winner)
  | l -> Alcotest.failf "expected 1 repair, got %d" (List.length l))

(* --- evaluator corners ---------------------------------------------------------- *)

let test_eval_leq_geq_names () =
  let schema = Relational.Schema.make "R" [ ("A", Relational.Schema.TName) ] in
  let rel = Relational.Relation.of_rows schema [ [ Relational.Value.name "a" ] ] in
  let parse = Query.Parser.parse_exn in
  Alcotest.(check bool) "'a' <= 'a' (reflexive)" true
    (Query.Eval.holds_relation rel (parse "'a' <= 'a'"));
  Alcotest.(check bool) "'a' <= 'b' undefined-false" false
    (Query.Eval.holds_relation rel (parse "'a' <= 'b'"));
  Alcotest.(check bool) "'a' >= 'a'" true
    (Query.Eval.holds_relation rel (parse "'a' >= 'a'"))

let test_eval_implies_edge () =
  let schema = Relational.Schema.make "R" [ ("A", Relational.Schema.TInt) ] in
  let rel = Relational.Relation.of_rows schema [ [ Relational.Value.int 1 ] ] in
  let parse = Query.Parser.parse_exn in
  Alcotest.(check bool) "false implies anything" true
    (Query.Eval.holds_relation rel (parse "false implies R(9)"));
  Alcotest.(check bool) "chained implication parses right" true
    (Query.Eval.holds_relation rel (parse "R(9) implies R(8) implies R(7)"))

(* --- priorities on conflict-free instances ---------------------------------------- *)

let test_priority_on_consistent_instance () =
  let c = empty_instance () in
  Alcotest.(check bool) "empty priority total (no edges)" true
    (Priority.is_total c (Priority.empty c));
  check Alcotest.int "no extensions" 0
    (List.length (Priority.one_step_extensions c (Priority.empty c)))

(* --- big ladder through the factorized paths --------------------------------------- *)

let test_large_ladder_factorized () =
  (* 2^40 repairs globally; everything component-wise stays exact *)
  let rel, fds = Workload.Generator.ladder 40 in
  let c = Conflict.build fds rel in
  let p = Priority.empty c in
  let d = Core.Decompose.make c p in
  check Alcotest.int "count 2^40" (1 lsl 40) (Core.Decompose.count Family.Rep d);
  check Alcotest.int "no certain tuple" 0
    (Vset.cardinal (Core.Decompose.certain_tuples Family.Rep d));
  check Alcotest.int "all possible" 80
    (Vset.cardinal (Core.Decompose.possible_tuples Family.Rep d));
  (* orienting every edge pins a unique repair *)
  let total = Priority.totalize c p in
  let d2 = Core.Decompose.make c total in
  check Alcotest.int "one preferred repair" 1 (Core.Decompose.count Family.C d2);
  check Alcotest.int "40 certain tuples" 40
    (Vset.cardinal (Core.Decompose.certain_tuples Family.C d2))

let suite =
  [
    ("MIS counts on paths (Padovan)", `Quick, test_path_mis_padovan);
    ("MIS counts on cycles (Perrin)", `Quick, test_cycle_mis_perrin);
    ("MIS counts on cliques", `Quick, test_clique_mis);
    ("empty instance", `Quick, test_empty_instance);
    ("single tuple, no constraints", `Quick, test_single_tuple);
    ("one big clique with a total score", `Quick, test_all_conflicting);
    ("name comparisons at the boundary", `Quick, test_eval_leq_geq_names);
    ("implication corners", `Quick, test_eval_implies_edge);
    ("priorities without conflicts", `Quick, test_priority_on_consistent_instance);
    ("2^40 repairs, factorized", `Quick, test_large_ladder_factorized);
  ]
