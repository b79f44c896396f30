(* Tests for the instance file format and the workload generators. *)

open Relational
module IF = Dbio.Instance_format

let check = Alcotest.check

let mgr_text =
  "# the paper's running example\n\
   relation Mgr(Name:name, Dept:name, Salary:int, Reports:int)\n\
   fd Dept -> Name Salary Reports\n\
   fd Name -> Dept Salary Reports\n\
   tuple 'Mary' 'R&D' 40000 3  source=s1\n\
   tuple 'John' 'R&D' 10000 2  source=s2\n\
   tuple 'Mary' 'IT'  20000 1  source=s3\n\
   tuple 'John' 'PR'  30000 4  source=s3\n\
   prefer source s1 > s3\n\
   prefer source s2 > s3\n"

let test_parse_mgr () =
  match IF.parse mgr_text with
  | Error e -> Alcotest.fail e
  | Ok spec ->
    check Alcotest.int "4 tuples" 4 (Relation.cardinality spec.IF.relation);
    check Alcotest.int "2 fds" 2 (List.length spec.IF.fds);
    check Alcotest.int "2 prefs" 2 (List.length spec.IF.prefs);
    let t = Tuple.make [ Value.name "Mary"; Value.name "R&D"; Value.int 40000; Value.int 3 ] in
    Alcotest.(check (option string)) "provenance" (Some "s1")
      (Provenance.source spec.IF.provenance t)

let test_parse_matches_generator () =
  let spec = Result.get_ok (IF.parse mgr_text) in
  let rel, fds, _ = Testlib.mgr () in
  Alcotest.(check bool) "same relation" true (Relation.equal rel spec.IF.relation);
  Alcotest.(check bool) "same fds" true
    (List.equal Constraints.Fd.equal fds spec.IF.fds)

let test_end_to_end_preferred_answer () =
  (* parse → rule → priority → preferred CQA reproduces Example 3 *)
  let spec = Result.get_ok (IF.parse mgr_text) in
  let c = Core.Conflict.build spec.IF.fds spec.IF.relation in
  let rule = Result.get_ok (IF.to_rule spec) in
  let p = Core.Pref_rules.apply_exn c rule in
  let q2 =
    Query.Parser.parse_exn
      "exists x1,y1,z1,x2,y2,z2. Mgr('Mary',x1,y1,z1) and Mgr('John',x2,y2,z2) \
       and y1 > y2 and z1 < z2"
  in
  Alcotest.(check bool) "Q2 preferred-certain" true
    (Core.Cqa.consistent_answer Core.Family.C c p q2)

let test_roundtrip () =
  let spec = Result.get_ok (IF.parse mgr_text) in
  let spec' = Result.get_ok (IF.parse (IF.print spec)) in
  Alcotest.(check bool) "relation" true (Relation.equal spec.IF.relation spec'.IF.relation);
  Alcotest.(check bool) "fds" true (List.equal Constraints.Fd.equal spec.IF.fds spec'.IF.fds);
  Alcotest.(check bool) "prefs" true (spec.IF.prefs = spec'.IF.prefs)

let test_annotations () =
  let text =
    "relation R(A:int, B:int)\n\
     tuple 1 2 source=s1 timestamp=99\n\
     prefer newest\n"
  in
  let spec = Result.get_ok (IF.parse text) in
  let t = Tuple.make [ Value.int 1; Value.int 2 ] in
  Alcotest.(check (option int)) "timestamp" (Some 99)
    (Provenance.timestamp spec.IF.provenance t);
  Alcotest.(check bool) "newest pref" true (spec.IF.prefs = [ IF.Newest ])

let test_parse_errors () =
  let expect_error text =
    match IF.parse text with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted %S" text
  in
  expect_error "tuple 1 2\n";
  expect_error "relation R(A:int)\ntuple x\n";
  expect_error "relation R(A:int)\ntuple 1 extra_token\n";
  expect_error "relation R(A:int)\nfd B -> A\n";
  expect_error "relation R(A:int)\nprefer loudest\n";
  expect_error "relation R(A:int)\nrelation S(B:int)\n";
  expect_error "relation R(A:bogus)\n";
  expect_error "nonsense here\n";
  expect_error ""

let contains = Testlib.contains

let test_error_line_numbers () =
  match IF.parse "relation R(A:int)\n# fine\ntuple nope\n" with
  | Error e ->
    Alcotest.(check bool) "mentions line 3" true (contains ~needle:"line 3" e)
  | Ok _ -> Alcotest.fail "accepted bad tuple"

(* --- workload generators --------------------------------------------------- *)

let test_generator_determinism () =
  let run seed =
    let rng = Workload.Prng.create seed in
    let rel, _ =
      Workload.Generator.random_instance rng ~n:20 ~key_values:5 ~payload_values:3
    in
    rel
  in
  Alcotest.(check bool) "same seed, same instance" true
    (Relation.equal (run 7) (run 7));
  Alcotest.(check bool) "different seeds differ" false
    (Relation.equal (run 7) (run 8))

let test_scenario_integration () =
  let rng = Workload.Prng.create 13 in
  let s =
    Workload.Scenario.integration rng ~employees:30 ~sources_per_tier:[ 2; 1 ]
      ~overlap:0.7
  in
  check Alcotest.int "three sources" 3 (List.length s.Workload.Scenario.sources);
  (* tier spans: both top-tier sources above the single bottom one *)
  check Alcotest.int "two reliability pairs" 2
    (List.length s.Workload.Scenario.reliability);
  Alcotest.(check bool) "has tuples" true
    (Relation.cardinality s.Workload.Scenario.relation >= 30);
  Alcotest.(check bool) "some conflicts" true
    (Workload.Scenario.conflicting_tuples s > 0);
  (* the reliability rule yields a valid (acyclic) priority *)
  let c = Core.Conflict.build s.Workload.Scenario.fds s.Workload.Scenario.relation in
  let rule =
    Result.get_ok
      (Core.Pref_rules.source_reliability s.Workload.Scenario.provenance
         ~more_reliable_than:s.Workload.Scenario.reliability)
  in
  Alcotest.(check bool) "priority builds" true
    (Result.is_ok (Core.Pref_rules.apply c rule))

let test_random_repair_is_repair () =
  let rng = Workload.Prng.create 91 in
  for _ = 1 to 15 do
    let rel, fds =
      Workload.Generator.random_instance rng ~n:15 ~key_values:4 ~payload_values:2
    in
    let c = Core.Conflict.build fds rel in
    Alcotest.(check bool) "random repair valid" true
      (Core.Repair.is_repair c (Workload.Generator.random_repair rng c))
  done

(* --- denial lines ---------------------------------------------------------- *)

let denial_text =
  "relation Emp(Name:name, Dept:name, Cap:int)\n\
   denial 'no-dup' forall 2 : t1.Name = t2.Name and t1.Dept != t2.Dept\n\
   denial 'cap' forall 1 : t1.Cap > 100\n\
   tuple 'Mary' 'R&D' 10\n\
   tuple 'Mary' 'IT' 20\n\
   tuple 'John' 'PR' 200\n"

let test_denial_parse_and_roundtrip () =
  let spec = Result.get_ok (IF.parse denial_text) in
  let strings dcs = List.map Constraints.Denial.to_string dcs in
  check
    Alcotest.(list string)
    "two denials parsed"
    [
      "'no-dup' forall 2 : t1.Name = t2.Name and t1.Dept != t2.Dept";
      "'cap' forall 1 : t1.Cap > 100";
    ]
    (strings spec.IF.denials);
  (* print → parse preserves them verbatim *)
  let spec' = Result.get_ok (IF.parse (IF.print spec)) in
  check
    Alcotest.(list string)
    "denials survive the round-trip" (strings spec.IF.denials)
    (strings spec'.IF.denials);
  (* and the parsed denials drive the hypergraph: Mary's two rows
     conflict, John's capacity violation is a singleton edge *)
  let h = Core.Hyper.build spec.IF.denials spec.IF.relation in
  check Alcotest.int "two hyperedges" 2
    (Graphs.Hypergraph.edge_count (Core.Hyper.hypergraph h))

let test_denial_parse_errors () =
  List.iter
    (fun line ->
      match IF.parse ("relation R(A:int)\n" ^ line ^ "\n") with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted malformed denial: %s" line)
    [
      "denial forall 0 : t1.A = t1.A";
      "denial forall 2 : t1.A = t3.A";
      "denial forall 2 : t1.B = t2.B";
      "denial nonsense";
    ]

(* --- quoting, escaping and the save/load/save fixpoint ------------------- *)

let name_spec names =
  let schema = Schema.make "R" [ ("A", Schema.TName); ("B", Schema.TInt) ] in
  {
    IF.relation =
      Relation.of_rows schema
        (List.mapi (fun i n -> [ Value.Name n; Value.Int i ]) names);
    fds = [];
    denials = [];
    provenance = Provenance.empty;
    prefs = [];
  }

let test_escaped_names_roundtrip () =
  let adversarial =
    [ "it's"; "back\\slash"; "'"; "\\"; "\\'"; "a b"; "#comment"; ""; "x=y"; "''" ]
  in
  let spec = name_spec adversarial in
  match IF.render spec with
  | Error e -> Alcotest.fail e
  | Ok text -> (
    match IF.parse text with
    | Error e -> Alcotest.failf "reparse failed on:\n%s\n%s" text e
    | Ok spec2 ->
      Alcotest.(check bool) "relation survives quoting" true
        (Relation.equal spec.IF.relation spec2.IF.relation))

let test_unprintable_names_rejected () =
  List.iter
    (fun bad ->
      match IF.render (name_spec [ bad ]) with
      | Error _ -> ()
      | Ok text ->
        Alcotest.failf "unprintable name %S rendered as:\n%s" bad text)
    [ "new\nline"; "tab\there"; "nul\000"; "del\127" ];
  (* and save refuses to write the file at all *)
  let path = Filename.temp_file "prefdb_reject" ".txt" in
  Sys.remove path;
  (match IF.save path (name_spec [ "torn\nname" ]) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "save wrote an unloadable file");
  Alcotest.(check bool) "no file written" false (Sys.file_exists path)

let test_tokenizer_escapes () =
  (* unknown escapes and dangling escapes are errors, not silent
     re-tokenizations *)
  List.iter
    (fun line ->
      match IF.parse ("relation R(A:name)\ntuple " ^ line ^ "\n") with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted malformed quoting: %s" line)
    [ "'\\n'"; "'dangling\\"; "'unterminated" ]

let test_truncated_tuple_is_positioned_error () =
  match IF.parse "relation R(A:name, B:int)\ntuple 'x'\n" with
  | Ok _ -> Alcotest.fail "truncated tuple accepted"
  | Error e ->
    Alcotest.(check bool) "carries the line number" true
      (String.length e >= 6 && String.sub e 0 6 = "line 2")

(* The qcheck fixpoint: for any names drawn from an adversarial
   alphabet (quotes, backslashes, whitespace, comment and annotation
   metacharacters, empty strings), save → load → save is a fixpoint
   and load reproduces the instance exactly. *)
let name_gen =
  QCheck2.Gen.(
    string_size ~gen:(oneofl [ '\''; '\\'; ' '; '#'; '='; 'a'; 'b'; '0' ])
      (int_bound 8))

let test_save_load_save_fixpoint =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"save→load→save fixpoint over adversarial names"
       ~count:300
       ~print:(fun names ->
         String.concat ", " (List.map (Printf.sprintf "%S") names))
       QCheck2.Gen.(list_size (int_range 1 6) name_gen)
       (fun names ->
         let spec = name_spec names in
         match IF.render spec with
         | Error e -> QCheck2.Test.fail_reportf "render failed: %s" e
         | Ok text -> (
           match IF.parse text with
           | Error e ->
             QCheck2.Test.fail_reportf "reparse failed: %s\non:\n%s" e text
           | Ok spec2 ->
             Relation.equal spec.IF.relation spec2.IF.relation
             && IF.render spec2 = Ok text)))

let suite =
  [
    ("parse the Mgr instance file", `Quick, test_parse_mgr);
    ("parsed instance matches the generator", `Quick, test_parse_matches_generator);
    ("file → preferences → certain answer (Example 3)", `Quick, test_end_to_end_preferred_answer);
    ("print/parse roundtrip", `Quick, test_roundtrip);
    ("tuple annotations", `Quick, test_annotations);
    ("parse errors", `Quick, test_parse_errors);
    ("errors carry line numbers", `Quick, test_error_line_numbers);
    ("generators are deterministic", `Quick, test_generator_determinism);
    ("integration scenario", `Quick, test_scenario_integration);
    ("random repairs are repairs", `Quick, test_random_repair_is_repair);
    ("denial lines parse and round-trip", `Quick, test_denial_parse_and_roundtrip);
    ("malformed denial lines rejected", `Quick, test_denial_parse_errors);
    ("escaped names roundtrip", `Quick, test_escaped_names_roundtrip);
    ("unprintable names rejected", `Quick, test_unprintable_names_rejected);
    ("tokenizer rejects bad escapes", `Quick, test_tokenizer_escapes);
    ("truncated tuple is a positioned error", `Quick, test_truncated_tuple_is_positioned_error);
    test_save_load_save_fixpoint;
  ]
