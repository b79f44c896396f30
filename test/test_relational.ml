(* Unit tests for the relational substrate. *)

open Relational

let check = Alcotest.check
let value = Testlib.value
let tuple = Testlib.tuple
let relation = Testlib.relation

(* --- Value --------------------------------------------------------------- *)

let test_value_equal_compare () =
  Alcotest.(check bool) "names equal" true (Value.equal (Value.name "a") (Value.name "a"));
  Alcotest.(check bool) "cross-domain" false (Value.equal (Value.name "1") (Value.int 1));
  Alcotest.(check bool) "name < int by convention" true
    (Value.compare (Value.name "z") (Value.int 0) < 0);
  Alcotest.(check bool) "ints ordered" true (Value.compare (Value.int 2) (Value.int 10) < 0)

let test_value_lt () =
  Alcotest.(check (option bool)) "ints" (Some true) (Value.lt (Value.int 1) (Value.int 2));
  Alcotest.(check (option bool)) "names unordered" None
    (Value.lt (Value.name "a") (Value.name "b"));
  Alcotest.(check (option bool)) "mixed unordered" None
    (Value.lt (Value.name "a") (Value.int 2))

let test_value_of_string () =
  (match Value.of_string `Int "42" with
  | Ok v -> check value "parsed int" (Value.int 42) v
  | Error e -> Alcotest.fail e);
  (match Value.of_string `Name "R&D" with
  | Ok v -> check value "parsed name" (Value.name "R&D") v
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "bad int is an error" true
    (Result.is_error (Value.of_string `Int "abc"))

let test_value_packed () =
  let vs =
    [ Value.name "a"; Value.name "b"; Value.name "R&D"; Value.int 0; Value.int (-3); Value.int 41 ]
  in
  List.iter
    (fun v -> check value "pack/unpack round-trip" v (Value.unpack (Value.pack v)))
    vs;
  Alcotest.(check bool) "interning is canonical" true
    (Value.pack (Value.name "dept") = Value.pack (Value.name "dept"));
  Alcotest.(check bool) "distinct names pack apart" true
    (Value.pack (Value.name "a") <> Value.pack (Value.name "b"));
  Alcotest.(check bool) "cross-domain never collides" true
    (Value.pack (Value.name "1") <> Value.pack (Value.int 1));
  let sign c = Stdlib.compare c 0 in
  Alcotest.(check bool) "packed order = boxed order" true
    (List.for_all
       (fun a ->
         List.for_all
           (fun b ->
             sign (Value.compare a b)
             = sign (Value.compare_packed (Value.pack a) (Value.pack b)))
           vs)
       vs);
  Alcotest.(check bool) "hash via packed form" true
    (Value.hash (Value.int 5) = Value.hash_packed (Value.pack (Value.int 5)));
  Alcotest.(check bool) "dictionary membership" true (Intern.mem "R&D");
  check Alcotest.string "dictionary round-trip" "R&D"
    (Intern.string_of_id (Intern.id_of_string "R&D"));
  Alcotest.(check bool) "unknown id rejected" true
    (try
       ignore (Intern.string_of_id max_int);
       false
     with Invalid_argument _ -> true)

(* [string_of_id] takes no lock: a reader on one domain must see every
   id another domain has published, through array growth, with its
   string. *)
let test_intern_concurrent_reads () =
  let fresh = 5000 in
  let writer =
    Domain.spawn (fun () ->
        for i = 1 to fresh do
          ignore (Intern.id_of_string (Printf.sprintf "intern-race-%d" i))
        done)
  in
  let bad = ref 0 in
  for _ = 1 to 20_000 do
    let id = Intern.count () - 1 in
    if id >= 0 && Intern.id_of_string (Intern.string_of_id id) <> id then incr bad
  done;
  Domain.join writer;
  Alcotest.(check int) "every published id reads back" 0 !bad;
  Alcotest.(check bool) "all interned" true
    (Intern.mem (Printf.sprintf "intern-race-%d" fresh))

(* --- Schema --------------------------------------------------------------- *)

let mgr_schema () =
  Schema.make "Mgr"
    [
      ("Name", Schema.TName); ("Dept", Schema.TName);
      ("Salary", Schema.TInt); ("Reports", Schema.TInt);
    ]

let test_schema_positions () =
  let s = mgr_schema () in
  check Alcotest.int "arity" 4 (Schema.arity s);
  Alcotest.(check (option int)) "Salary at 2" (Some 2) (Schema.position s "Salary");
  Alcotest.(check (option int)) "missing" None (Schema.position s "Phone");
  check Alcotest.(list int) "positions" [ 1; 2 ]
    (Schema.positions_exn s [ "Dept"; "Salary" ]);
  Alcotest.(check bool) "ty_at" true (Schema.ty_at s 0 = Schema.TName)

let test_schema_errors () =
  Alcotest.(check bool) "duplicate attrs rejected" true
    (try
       ignore (Schema.make "R" [ ("A", Schema.TInt); ("A", Schema.TInt) ]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "empty rejected" true
    (try
       ignore (Schema.make "R" []);
       false
     with Invalid_argument _ -> true)

(* --- Tuple ----------------------------------------------------------------- *)

let test_tuple_ops () =
  let t = Tuple.make [ Value.name "Mary"; Value.name "R&D"; Value.int 40000; Value.int 3 ] in
  check Alcotest.int "arity" 4 (Tuple.arity t);
  check value "get" (Value.int 40000) (Tuple.get t 2);
  check (Alcotest.list value) "project"
    [ Value.name "R&D"; Value.int 3 ]
    (Tuple.project t [ 1; 3 ]);
  let t2 = Tuple.make [ Value.name "Mary"; Value.name "IT"; Value.int 40000; Value.int 3 ] in
  Alcotest.(check bool) "agree on 0,2" true (Tuple.agree_on t t2 [ 0; 2 ]);
  Alcotest.(check bool) "differ on 1" false (Tuple.agree_on t t2 [ 1 ]);
  Alcotest.(check bool) "conforms" true (Tuple.conforms (mgr_schema ()) t);
  let bad = Tuple.make [ Value.int 1; Value.name "x"; Value.int 1; Value.int 1 ] in
  Alcotest.(check bool) "wrong type rejected" false (Tuple.conforms (mgr_schema ()) bad)

let test_tuple_order () =
  let a = Tuple.make [ Value.int 1; Value.int 2 ] in
  let b = Tuple.make [ Value.int 1; Value.int 3 ] in
  Alcotest.(check bool) "lexicographic" true (Tuple.compare a b < 0);
  Alcotest.(check bool) "equal" true (Tuple.compare a a = 0);
  Alcotest.(check bool) "hash consistent" true (Tuple.hash a = Tuple.hash (Tuple.make [ Value.int 1; Value.int 2 ]))

(* --- Relation --------------------------------------------------------------- *)

let small_rel () =
  let s = Schema.make "R" [ ("A", Schema.TInt); ("B", Schema.TInt) ] in
  Relation.of_rows s
    [ [ Value.int 0; Value.int 0 ]; [ Value.int 0; Value.int 1 ]; [ Value.int 1; Value.int 0 ] ]

let test_relation_set_semantics () =
  let s = Schema.make "R" [ ("A", Schema.TInt) ] in
  let r = Relation.of_rows s [ [ Value.int 1 ]; [ Value.int 1 ]; [ Value.int 2 ] ] in
  check Alcotest.int "duplicates collapse" 2 (Relation.cardinality r)

let test_relation_union_example1 () =
  (* r = s1 ∪ s2 ∪ s3 of Example 1. *)
  let rel, _, _ = Testlib.mgr () in
  check Alcotest.int "4 integrated tuples" 4 (Relation.cardinality rel)

let test_relation_ops () =
  let r = small_rel () in
  let s = Relation.schema r in
  let t = Tuple.make [ Value.int 0; Value.int 0 ] in
  Alcotest.(check bool) "mem" true (Relation.mem r t);
  let r' = Relation.remove r t in
  Alcotest.(check bool) "removed" false (Relation.mem r' t);
  check Alcotest.int "cardinality drops" 2 (Relation.cardinality r');
  Alcotest.(check bool) "subset" true (Relation.subset r' r);
  check relation "union restores" r (Relation.union r' (Relation.of_tuples s [ t ]));
  check relation "diff" (Relation.of_tuples s [ t ]) (Relation.diff r r');
  check Alcotest.int "filter" 2
    (Relation.cardinality
       (Relation.filter (fun t -> Value.equal (Tuple.get t 0) (Value.int 0)) r))

let test_relation_schema_mismatch () =
  let s1 = Schema.make "R" [ ("A", Schema.TInt) ] in
  let s2 = Schema.make "S" [ ("A", Schema.TInt) ] in
  let r1 = Relation.of_rows s1 [ [ Value.int 1 ] ] in
  let r2 = Relation.of_rows s2 [ [ Value.int 2 ] ] in
  Alcotest.(check bool) "union rejects" true
    (try
       ignore (Relation.union r1 r2);
       false
     with Invalid_argument _ -> true)

let test_relation_typing () =
  let s = Schema.make "R" [ ("A", Schema.TInt) ] in
  Alcotest.(check bool) "ill-typed tuple rejected" true
    (try
       ignore (Relation.of_rows s [ [ Value.name "x" ] ]);
       false
     with Invalid_argument _ -> true)

let test_relation_active_domain () =
  let r = small_rel () in
  check Alcotest.int "active domain size" 2 (List.length (Relation.active_domain r))

let test_relation_tuple_array_fact_ids () =
  (* rows deliberately NOT in canonical order: fact ids follow insertion *)
  let s = Schema.make "R" [ ("A", Schema.TInt); ("B", Schema.TInt) ] in
  let rows =
    [ [ Value.int 1; Value.int 0 ]; [ Value.int 0; Value.int 1 ]; [ Value.int 0; Value.int 0 ] ]
  in
  let r = Relation.of_rows s rows in
  let arr = Relation.tuple_array r in
  check (Alcotest.list tuple) "insertion order" (List.map Tuple.make rows)
    (Array.to_list arr);
  Array.iteri
    (fun i t ->
      Alcotest.(check (option int)) "find = position" (Some i) (Relation.find r t);
      check tuple "fact round-trip" t (Relation.fact r i))
    arr;
  Alcotest.(check bool) "tuples stays canonical" true
    (List.equal Tuple.equal (Relation.tuples r)
       (List.sort Tuple.compare (Relation.tuples r)))

let test_relation_fact_id_stability () =
  let s = Schema.make "R" [ ("A", Schema.TInt) ] in
  let row n = [ Value.int n ] in
  let r = Relation.of_rows s [ row 0; row 1; row 2 ] in
  (* tombstoning keeps the other ids; re-adding allocates a fresh slot *)
  let r' = Relation.remove r (Tuple.make (row 1)) in
  check Alcotest.int "slots survive removal" 3 (Relation.slot_count r');
  Alcotest.(check (option int)) "id 0 stable" (Some 0)
    (Relation.find r' (Tuple.make (row 0)));
  Alcotest.(check (option int)) "id 2 stable" (Some 2)
    (Relation.find r' (Tuple.make (row 2)));
  Alcotest.(check (option int)) "removed gone" None
    (Relation.find r' (Tuple.make (row 1)));
  check tuple "tombstoned slot remembers its tuple" (Tuple.make (row 1))
    (Relation.fact r' 1);
  let r'', deleted, inserted =
    Relation.patch r' ~delete:[ Tuple.make (row 0) ] ~insert:[ Tuple.make (row 9) ]
  in
  check Alcotest.(list int) "patch deletes by id" [ 0 ] deleted;
  check Alcotest.(list int) "patch appends fresh ids" [ 3 ] inserted;
  Alcotest.(check (option int)) "id 2 still stable" (Some 2)
    (Relation.find r'' (Tuple.make (row 2)));
  Alcotest.(check bool) "patch rejects absent delete" true
    (try
       ignore (Relation.patch r'' ~delete:[ Tuple.make (row 0) ] ~insert:[]);
       false
     with Invalid_argument _ -> true)

let test_relation_postings () =
  let s = Schema.make "R" [ ("A", Schema.TInt); ("B", Schema.TInt) ] in
  let r =
    Relation.of_rows s
      [ [ Value.int 0; Value.int 0 ]; [ Value.int 0; Value.int 1 ]; [ Value.int 1; Value.int 0 ] ]
  in
  let ids col v = Graphs.Vset.elements (Relation.matching r col (Value.pack (Value.int v))) in
  check Alcotest.(list int) "column 0 group" [ 0; 1 ] (ids 0 0);
  check Alcotest.(list int) "column 1 group" [ 0; 2 ] (ids 1 0);
  check Alcotest.(list int) "missing key" [] (ids 0 7);
  (* postings follow a patch incrementally *)
  let r', _, _ =
    Relation.patch r
      ~delete:[ Tuple.make [ Value.int 0; Value.int 1 ] ]
      ~insert:[ Tuple.make [ Value.int 0; Value.int 5 ] ]
  in
  let ids' col v = Graphs.Vset.elements (Relation.matching r' col (Value.pack (Value.int v))) in
  check Alcotest.(list int) "group after patch" [ 0; 3 ] (ids' 0 0);
  check Alcotest.(list int) "deleted left its group" [] (ids' 1 1);
  let groups = ref [] in
  Relation.iter_groups r' 0 (fun key ids -> groups := (Value.unpack key, Graphs.Vset.cardinal ids) :: !groups);
  check Alcotest.(list (pair value int)) "iter_groups"
    [ (Value.int 0, 2); (Value.int 1, 1) ]
    (List.sort compare !groups)

let test_relation_builder () =
  let s = Schema.make "R" [ ("A", Schema.TInt) ] in
  let b = Relation.Builder.create s in
  for i = 0 to 9 do
    Relation.Builder.add_row b [ Value.int (i mod 4) ]
  done;
  check Alcotest.int "deduplicated size" 4 (Relation.Builder.size b);
  Alcotest.(check bool) "mem" true
    (Relation.Builder.mem b (Tuple.make [ Value.int 3 ]));
  let r = Relation.Builder.finish b in
  check Alcotest.int "cardinality" 4 (Relation.cardinality r);
  Alcotest.(check (option int)) "first-insertion ids" (Some 2)
    (Relation.find r (Tuple.make [ Value.int 2 ]))

(* --- Database --------------------------------------------------------------- *)

let test_database () =
  let r = small_rel () in
  let rel2 =
    Relation.of_rows (Schema.make "S" [ ("X", Schema.TName) ]) [ [ Value.name "a" ] ]
  in
  let db = Database.of_relations [ r; rel2 ] in
  check Alcotest.(list string) "names" [ "R"; "S" ] (Database.names db);
  check Alcotest.int "total" 4 (Database.total_tuples db);
  Alcotest.(check bool) "find" true (Database.find db "R" <> None);
  Alcotest.(check bool) "dup add rejected" true
    (try
       ignore (Database.add db r);
       false
     with Invalid_argument _ -> true);
  let db' = Database.replace db (Relation.empty (Relation.schema r)) in
  check Alcotest.int "replace works" 1 (Database.total_tuples db')

(* --- Provenance ------------------------------------------------------------- *)

let test_provenance () =
  let t = Tuple.make [ Value.int 1 ] in
  let p = Provenance.of_list [ (t, Provenance.info ~source:"s1" ~timestamp:7 ()) ] in
  Alcotest.(check (option string)) "source" (Some "s1") (Provenance.source p t);
  Alcotest.(check (option int)) "timestamp" (Some 7) (Provenance.timestamp p t);
  let unknown = Tuple.make [ Value.int 2 ] in
  Alcotest.(check (option string)) "missing" None (Provenance.source p unknown);
  let s = Schema.make "R" [ ("A", Schema.TInt) ] in
  let r = Relation.of_rows s [ [ Value.int 1 ]; [ Value.int 2 ] ] in
  let p' = Provenance.tag_source "s9" r p in
  Alcotest.(check (option string)) "tagged" (Some "s9") (Provenance.source p' unknown);
  Alcotest.(check (option int)) "timestamp preserved by tagging" (Some 7)
    (Provenance.timestamp p' t)

let suite =
  [
    ("value: equality and order", `Quick, test_value_equal_compare);
    ("value: natural order on N only", `Quick, test_value_lt);
    ("value: of_string", `Quick, test_value_of_string);
    ("value: packed form and interning", `Quick, test_value_packed);
    ("schema: positions", `Quick, test_schema_positions);
    ("schema: validation errors", `Quick, test_schema_errors);
    ("tuple: projections and conformance", `Quick, test_tuple_ops);
    ("tuple: ordering and hash", `Quick, test_tuple_order);
    ("relation: set semantics", `Quick, test_relation_set_semantics);
    ("relation: Example 1 integration", `Quick, test_relation_union_example1);
    ("relation: set operations", `Quick, test_relation_ops);
    ("relation: schema mismatch", `Quick, test_relation_schema_mismatch);
    ("relation: typing enforced", `Quick, test_relation_typing);
    ("relation: active domain", `Quick, test_relation_active_domain);
    ("relation: fact-id order and lookup", `Quick, test_relation_tuple_array_fact_ids);
    ("relation: fact ids stable under updates", `Quick, test_relation_fact_id_stability);
    ("relation: per-column postings", `Quick, test_relation_postings);
    ("relation: bulk builder", `Quick, test_relation_builder);
    ("database: multi-relation container", `Quick, test_database);
    ("provenance: annotations", `Quick, test_provenance);
    ("intern: reads race with interning", `Quick, test_intern_concurrent_reads);
  ]
