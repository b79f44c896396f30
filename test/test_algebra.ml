(* Tests for the relational algebra, and planner inputs over the same
   fixtures checked against the evaluator. *)

open Relational
module A = Algebra

let check = Alcotest.check
let parse = Query.Parser.parse_exn

let r_schema = Schema.make "R" [ ("A", Schema.TInt); ("B", Schema.TInt) ]
let s_schema = Schema.make "S" [ ("B", Schema.TInt); ("C", Schema.TName) ]

let r () =
  Relation.of_rows r_schema
    [
      [ Value.int 1; Value.int 10 ];
      [ Value.int 2; Value.int 20 ];
      [ Value.int 3; Value.int 20 ];
    ]

let s () =
  Relation.of_rows s_schema
    [
      [ Value.int 10; Value.name "x" ];
      [ Value.int 20; Value.name "y" ];
      [ Value.int 30; Value.name "z" ];
    ]

(* --- algebra --------------------------------------------------------------- *)

let test_select () =
  let e = A.Select (A.Const_cmp (A.Gt, 1, Value.int 10), A.Rel (r ())) in
  check Alcotest.int "two rows" 2 (A.cardinality e);
  let e2 = A.Select (A.Attr_cmp (A.Lt, 0, 1), A.Rel (r ())) in
  check Alcotest.int "all rows (A < B)" 3 (A.cardinality e2);
  let e3 = A.Select (A.Conj [], A.Rel (r ())) in
  check Alcotest.int "empty conj = true" 3 (A.cardinality e3)

let test_project () =
  let e = A.Project ([ 1 ], A.Rel (r ())) in
  (* B values 10, 20, 20 -> dedup to 2 *)
  check Alcotest.int "set semantics" 2 (A.cardinality e);
  let dup = A.Project ([ 0; 0 ], A.Rel (r ())) in
  check Alcotest.int "duplicated column" 3 (A.cardinality dup);
  check Alcotest.int "arity" 2 (A.arity dup)

let test_join () =
  let e = A.Join ([ (1, 0) ], A.Rel (r ()), A.Rel (s ())) in
  (* R.B = S.B: (1,10)-(10,x), (2,20)-(20,y), (3,20)-(20,y) *)
  check Alcotest.int "join rows" 3 (A.cardinality e);
  check Alcotest.int "join arity" 4 (A.arity e);
  (* product *)
  let prod = A.Join ([], A.Rel (r ()), A.Rel (s ())) in
  check Alcotest.int "product" 9 (A.cardinality prod);
  (* join = select over product *)
  let via_product =
    A.Select (A.Attr_cmp (A.Eq, 1, 2), A.Join ([], A.Rel (r ()), A.Rel (s ())))
  in
  Alcotest.(check bool) "hash join = filtered product" true
    (Relation.equal
       (Relation.of_tuples (Relation.schema (A.eval e)) (Relation.tuples (A.eval e)))
       (Relation.of_tuples
          (Relation.schema (A.eval e))
          (Relation.tuples (A.eval via_product))))

let test_union_diff () =
  let top = A.Select (A.Const_cmp (A.Geq, 1, Value.int 20), A.Rel (r ())) in
  let bottom = A.Select (A.Const_cmp (A.Leq, 1, Value.int 10), A.Rel (r ())) in
  check Alcotest.int "union" 3 (A.cardinality (A.Union (top, bottom)));
  check Alcotest.int "diff" 1 (A.cardinality (A.Diff (A.Rel (r ()), top)));
  check Alcotest.int "self diff" 0 (A.cardinality (A.Diff (top, top)))

let test_check_errors () =
  let expect_error e =
    Alcotest.(check bool) "rejected" true (Result.is_error (A.check e))
  in
  expect_error (A.Project ([ 5 ], A.Rel (r ())));
  expect_error (A.Select (A.Attr_cmp (A.Eq, 0, 9), A.Rel (r ())));
  expect_error (A.Union (A.Rel (r ()), A.Rel (s ())));
  (* cross-type comparison and cross-type join stay errors *)
  expect_error (A.Select (A.Const_cmp (A.Lt, 1, Value.int 3), A.Rel (s ())));
  expect_error (A.Join ([ (0, 1) ], A.Rel (r ()), A.Rel (s ())));
  Alcotest.(check bool) "valid plan accepted" true
    (Result.is_ok (A.check (A.Join ([ (1, 0) ], A.Rel (r ()), A.Rel (s ())))))

(* Order comparisons on name-typed columns are accepted with degenerate
   semantics — names are unordered, so [<]/[>] never hold and [<=]/[>=]
   mean [=] — in lockstep with [Query.Eval.holds] and the planner's
   static rewrite. *)
let test_name_order_semantics () =
  let sel op v = A.Select (A.Const_cmp (op, 1, Value.name v), A.Rel (s ())) in
  Alcotest.(check bool) "accepted by check" true (Result.is_ok (A.check (sel A.Lt "y")));
  check Alcotest.int "names: < never holds" 0 (A.cardinality (sel A.Lt "y"));
  check Alcotest.int "names: > never holds" 0 (A.cardinality (sel A.Gt "y"));
  check Alcotest.int "names: <= means =" 1 (A.cardinality (sel A.Leq "y"));
  check Alcotest.int "names: >= means =" 1 (A.cardinality (sel A.Geq "y"));
  check Alcotest.int "names: = unaffected" 1 (A.cardinality (sel A.Eq "y"));
  check Alcotest.int "names: != unaffected" 2 (A.cardinality (sel A.Neq "y"));
  let attr op = A.Select (A.Attr_cmp (op, 1, 1), A.Rel (s ())) in
  check Alcotest.int "attr <= on same column = all" 3 (A.cardinality (attr A.Leq));
  check Alcotest.int "attr < on same column = none" 0 (A.cardinality (attr A.Lt));
  (* the evaluator agrees on the same comparisons *)
  let db = Database.of_relations [ s () ] in
  let holds q = Query.Eval.holds db (parse q) in
  Alcotest.(check bool) "eval: < never holds" false
    (holds "exists b, c. S(b, c) and c < 'y'");
  Alcotest.(check bool) "eval: <= means =" true
    (holds "exists b. S(b, 'y') and 'y' <= 'y'");
  (* and the planner routes them to the same answers *)
  let q = parse "exists b, c. S(b, c) and c <= 'y'" in
  Alcotest.(check bool) "planner = eval on name <=" (Query.Eval.holds db q)
    (Planner.Engine.holds db q);
  Alcotest.(check bool) "planner compiles name <=" true
    (Planner.Engine.planned db q)

(* --- planner ----------------------------------------------------------------- *)

(* Planner inputs over the algebra fixtures: [Test_planner.check_agree]
   checks that each one compiles and that its answer equals the
   active-domain evaluator's; the expected verdicts are pinned on top. *)

let db () = Database.of_relations [ r (); s () ]
let agree db = List.iter (Test_planner.check_agree ~planned:true db)
let holds db q = Planner.Engine.holds db (parse q)

let test_plan_simple () =
  let db = db () in
  agree db [ "exists a, b. R(a, b) and b > 10"; "exists a. R(a, 99)" ];
  Alcotest.(check bool) "holds" true
    (holds db "exists a, b. R(a, b) and b > 10");
  Alcotest.(check bool) "no match" false (holds db "exists a. R(a, 99)")

let test_plan_join_query () =
  let db = db () in
  let q = "exists a, b, c. R(a, b) and S(b, c) and c = 'y'" in
  let q2 = "exists a, b, c. R(a, b) and S(b, c) and c = 'z'" in
  agree db [ q; q2 ];
  Alcotest.(check bool) "join via planner" true (holds db q);
  Alcotest.(check bool) "S(30,z) unreachable" false (holds db q2)

let test_plan_open_query () =
  let q = "exists b. R(a, b) and S(b, c)" in
  agree (db ()) [ q ];
  let free, rows = Planner.Engine.answers (db ()) (parse q) in
  check Alcotest.(list string) "free" [ "a"; "c" ] free;
  check Alcotest.int "rows" 3 (List.length rows)

let test_plan_static_simplification () =
  (* cross-domain equality and name ordering decide statically *)
  let db = db () in
  let cases =
    [
      ("cross-type constant", "exists a, b. R(a, b) and a = 'nope'", false);
      ("name order unsatisfiable", "exists b, c. S(b, c) and c < 'z'", false);
      ( "name <= collapses to equality",
        "exists b, c. S(b, c) and c <= 'y' and b = 20",
        true );
      ( "cross-type inequality vacuous",
        "exists a, b. R(a, b) and a != 'name'",
        true );
    ]
  in
  agree db (List.map (fun (_, q, _) -> q) cases);
  List.iter
    (fun (msg, q, expected) -> Alcotest.(check bool) msg expected (holds db q))
    cases

let test_plan_repeated_vars () =
  let schema = Schema.make "T" [ ("A", Schema.TInt); ("B", Schema.TInt) ] in
  let t =
    Relation.of_rows schema
      [ [ Value.int 1; Value.int 1 ]; [ Value.int 1; Value.int 2 ] ]
  in
  let db = Database.of_relations [ t ] in
  agree db [ "exists x. T(x, x)"; "T(x, x)" ];
  Alcotest.(check bool) "diagonal atom" true (holds db "exists x. T(x, x)");
  check Alcotest.int "one diagonal row" 1
    (List.length (snd (Planner.Engine.answers db (parse "T(x, x)"))))

(* --- engine = eval cross-validation -------------------------------------------- *)

let test_engine_matches_eval_random () =
  let rng = Workload.Prng.create 503 in
  for _ = 1 to 40 do
    let n_r = 1 + Workload.Prng.int rng 8 in
    let rel =
      Relation.of_rows r_schema
        (List.init n_r (fun _ ->
             [
               Value.int (Workload.Prng.int rng 3);
               Value.int (10 * (1 + Workload.Prng.int rng 3));
             ]))
    in
    let srel =
      Relation.of_rows s_schema
        (List.init n_r (fun _ ->
             [
               Value.int (10 * (1 + Workload.Prng.int rng 3));
               Value.name (String.make 1 (Char.chr (Char.code 'x' + Workload.Prng.int rng 3)));
             ]))
    in
    agree
      (Database.of_relations [ rel; srel ])
      [
        "exists a, b. R(a, b)";
        "exists a, b, c. R(a, b) and S(b, c)";
        "exists a, b. R(a, b) and b >= 20 and a != 1";
        "exists a, b, c. R(a, b) and S(b, c) and c = 'x'";
        "exists a. R(a, 10) and R(a, 20)";
        "exists x. R(x, x)";
        (* open query comparison *)
        "exists b. R(a, b) and S(b, c)";
      ]
  done

let suite =
  [
    ("algebra: selection", `Quick, test_select);
    ("algebra: projection with set semantics", `Quick, test_project);
    ("algebra: hash join = filtered product", `Quick, test_join);
    ("algebra: union and difference", `Quick, test_union_diff);
    ("algebra: static validation", `Quick, test_check_errors);
    ("algebra: name-order degenerate semantics", `Quick, test_name_order_semantics);
    ("plan: simple selections", `Quick, test_plan_simple);
    ("plan: join queries", `Quick, test_plan_join_query);
    ("plan: open queries", `Quick, test_plan_open_query);
    ("plan: static simplification of comparisons", `Quick, test_plan_static_simplification);
    ("plan: repeated variables in atoms", `Quick, test_plan_repeated_vars);
    ("engine: planner = evaluator on random databases", `Quick, test_engine_matches_eval_random);
  ]
