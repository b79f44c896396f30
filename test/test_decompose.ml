(* Tests for component-wise evaluation (Core.Decompose): the factorized
   engines must agree with the monolithic ones on every family. *)

open Graphs
module Conflict = Core.Conflict
module Priority = Core.Priority
module Family = Core.Family
module Decompose = Core.Decompose
module Cqa = Core.Cqa

let check = Alcotest.check

let certainty =
  Alcotest.testable
    (fun ppf c -> Format.pp_print_string ppf (Cqa.certainty_to_string c))
    (fun a b -> a = b)

let random_case rng =
  let rel, fds =
    Workload.Generator.random_instance rng ~n:10 ~key_values:4 ~payload_values:2
  in
  let c = Conflict.build fds rel in
  let p = Workload.Generator.random_priority rng ~density:0.5 c in
  (c, p)

let test_count_matches_enumeration () =
  let rng = Workload.Prng.create 401 in
  for _ = 1 to 20 do
    let c, p = random_case rng in
    let d = Decompose.make c p in
    List.iter
      (fun family ->
        check Alcotest.int
          (Family.name_to_string family)
          (List.length (Family.repairs family c p))
          (Decompose.count family d))
      Family.all_names
  done

let test_preferred_within_union () =
  (* stitching one preferred repair per component yields a preferred
     repair of the whole instance *)
  let rng = Workload.Prng.create 403 in
  for _ = 1 to 15 do
    let c, p = random_case rng in
    let d = Decompose.make c p in
    List.iter
      (fun family ->
        let stitched =
          List.fold_left
            (fun acc comp ->
              match Decompose.preferred_within family d comp with
              | first :: _ -> Vset.union first acc
              | [] -> Alcotest.fail "component family empty")
            Vset.empty (Decompose.components d)
        in
        Alcotest.(check bool)
          (Family.name_to_string family ^ " stitched is preferred")
          true
          (Family.check family c p stitched))
      Family.all_names
  done

let test_certainty_matches_naive () =
  let rng = Workload.Prng.create 405 in
  for _ = 1 to 25 do
    let c, p = random_case rng in
    let d = Decompose.make c p in
    let tuples = Conflict.tuples c in
    if Array.length tuples >= 2 then begin
      let atom i =
        Query.Ast.Atom
          ( Relational.Schema.name (Conflict.schema c),
            List.map
              (fun v -> Query.Ast.Const v)
              (Relational.Tuple.values tuples.(i)) )
      in
      let pick () = Workload.Prng.int rng (Array.length tuples) in
      let q =
        Query.Ast.Or
          ( Query.Ast.And (atom (pick ()), Query.Ast.Not (atom (pick ()))),
            atom (pick ()) )
      in
      List.iter
        (fun family ->
          let naive = Cqa.certainty family c p q in
          match Decompose.certainty_ground family d q with
          | Error e -> Alcotest.fail e
          | Ok fast ->
            check certainty (Family.name_to_string family) naive fast)
        Family.all_names
    end
  done

let test_certainty_example3 () =
  (* the Mgr disjunction certified by preferences, through the factorized
     engine this time *)
  let rel, fds, prov = Testlib.mgr () in
  let c = Conflict.build fds rel in
  let rule =
    Result.get_ok
      (Core.Pref_rules.source_reliability prov
         ~more_reliable_than:[ ("s1", "s3"); ("s2", "s3") ])
  in
  let p = Core.Pref_rules.apply_exn c rule in
  let d = Decompose.make c p in
  let q =
    Query.Parser.parse_exn
      "Mgr('Mary', 'R&D', 40000, 3) or Mgr('John', 'R&D', 10000, 2)"
  in
  check certainty "certain under C" Cqa.Certainly_true
    (Result.get_ok (Decompose.certainty_ground Family.C d q))

let test_aggregate_matches_enumeration () =
  let rng = Workload.Prng.create 407 in
  let range =
    Alcotest.testable Core.Aggregate.pp_range (fun a b ->
        a.Core.Aggregate.glb = b.Core.Aggregate.glb
        && a.Core.Aggregate.lub = b.Core.Aggregate.lub)
  in
  for _ = 1 to 15 do
    let c, p = random_case rng in
    let d = Decompose.make c p in
    List.iter
      (fun family ->
        List.iter
          (fun agg ->
            let naive =
              Result.get_ok (Core.Aggregate.range_preferred family c p agg)
            in
            let fast = Result.get_ok (Decompose.aggregate_range family d agg) in
            check range
              (Family.name_to_string family ^ "/" ^ Core.Aggregate.agg_to_string agg)
              naive fast)
          [
            Core.Aggregate.Count_all;
            Core.Aggregate.Sum "B";
            Core.Aggregate.Min "B";
            Core.Aggregate.Max "C";
          ])
      Family.all_names
  done

let test_scales_beyond_enumeration () =
  (* 120 tuples in 30 clusters: 4^30 ≈ 10^18 repairs globally — far past
     enumeration — yet counting and ground certainty stay immediate *)
  let rel, fds = Workload.Generator.key_clusters ~groups:30 ~width:4 in
  let c = Conflict.build fds rel in
  let rng = Workload.Prng.create 409 in
  let p = Workload.Generator.random_priority rng ~density:0.7 c in
  let d = Decompose.make c p in
  check Alcotest.int "30 components" 30 (List.length (Decompose.components d));
  let pow b e = List.fold_left (fun a _ -> a * b) 1 (List.init e Fun.id) in
  check Alcotest.int "Rep count = 4^30" (pow 4 30) (Decompose.count Family.Rep d);
  let g_count = Decompose.count Family.G d in
  Alcotest.(check bool) "G count positive and below Rep" true
    (g_count > 0 && g_count <= pow 4 30);
  let t = Conflict.tuple c 0 in
  let q =
    Query.Ast.Atom
      ( "R",
        List.map (fun v -> Query.Ast.Const v) (Relational.Tuple.values t) )
  in
  match Decompose.certainty_ground Family.G d q with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e

let test_certain_possible_tuples () =
  let rng = Workload.Prng.create 411 in
  for _ = 1 to 15 do
    let c, p = random_case rng in
    let d = Decompose.make c p in
    List.iter
      (fun family ->
        let repairs = Family.repairs family c p in
        let expected_certain =
          match repairs with
          | [] -> Vset.empty
          | first :: rest -> List.fold_left Vset.inter first rest
        in
        let expected_possible = List.fold_left Vset.union Vset.empty repairs in
        check Testlib.vset
          (Family.name_to_string family ^ " certain")
          expected_certain
          (Decompose.certain_tuples family d);
        check Testlib.vset
          (Family.name_to_string family ^ " possible")
          expected_possible
          (Decompose.possible_tuples family d))
      Family.all_names
  done

let test_certain_tuples_mgr () =
  (* with Example 3's preferences, no Mgr tuple is certain (r1 and r2 are
     disjoint) but the s3-only combination is excluded: John-PR and
     Mary-IT remain possible, all four tuples remain possible, none
     certain *)
  let rel, fds, prov = Testlib.mgr () in
  let c = Core.Conflict.build fds rel in
  let rule =
    Result.get_ok
      (Core.Pref_rules.source_reliability prov
         ~more_reliable_than:[ ("s1", "s3"); ("s2", "s3") ])
  in
  let p = Core.Pref_rules.apply_exn c rule in
  let d = Decompose.make c p in
  check Alcotest.int "no certain tuples" 0
    (Vset.cardinal (Decompose.certain_tuples Family.C d));
  check Alcotest.int "all four possible" 4
    (Vset.cardinal (Decompose.possible_tuples Family.C d))

(* --- the streaming sharded variants ------------------------------------- *)

let ground_atom c i =
  Query.Ast.Atom
    ( Relational.Schema.name (Conflict.schema c),
      List.map
        (fun v -> Query.Ast.Const v)
        (Relational.Tuple.values (Conflict.tuple c i)) )

let test_streaming_iter_equals_family () =
  let rng = Workload.Prng.create 501 in
  for _ = 1 to 15 do
    let c, p = random_case rng in
    let d = Decompose.make c p in
    List.iter
      (fun family ->
        let whole = List.sort Vset.compare (Family.repairs family c p) in
        let acc = ref [] in
        Decompose.iter family d (fun r -> acc := r :: !acc);
        let sharded = List.sort Vset.compare !acc in
        check
          (Alcotest.list Testlib.vset)
          (Family.name_to_string family ^ " iter = repairs")
          whole sharded;
        List.iter
          (fun r ->
            Alcotest.(check bool)
              (Family.name_to_string family ^ " member accepts its repairs")
              true
              (Decompose.member family d r))
          whole;
        match Decompose.one family d with
        | None -> Alcotest.fail "Decompose.one returned None"
        | Some r ->
          Alcotest.(check bool)
            (Family.name_to_string family ^ " one is preferred")
            true
            (Family.check family c p r))
      Family.all_names
  done

let test_member_matches_check () =
  let rng = Workload.Prng.create 503 in
  for _ = 1 to 15 do
    let c, p = random_case rng in
    let d = Decompose.make c p in
    for _ = 1 to 5 do
      let cand = Workload.Generator.random_repair rng c in
      List.iter
        (fun family ->
          Alcotest.(check bool)
            (Family.name_to_string family ^ " member = check")
            (Family.check family c p cand)
            (Decompose.member family d cand))
        Family.all_names
    done
  done

(* the ISSUE's headline equivalence: sharded certainty / consistent
   answers agree with the whole-graph path for every family, on ground
   and quantified queries alike *)
let test_sharded_certainty_equivalence () =
  let rng = Workload.Prng.create 505 in
  for _ = 1 to 12 do
    let c, p = random_case rng in
    let d = Decompose.make c p in
    let n = Conflict.size c in
    if n >= 2 then begin
      let pick () = Workload.Prng.int rng n in
      let queries =
        [
          Query.Ast.Or (ground_atom c (pick ()), Query.Ast.Not (ground_atom c (pick ())));
          Query.Ast.And (ground_atom c (pick ()), ground_atom c (pick ()));
          Query.Parser.parse_exn "exists x, y. R(x, y, 0)";
          Query.Parser.parse_exn "exists x. R(x, 0, 0)";
          Query.Parser.parse_exn "not (exists x, y. R(x, 0, y) and R(x, 1, y))";
        ]
      in
      List.iter
        (fun family ->
          List.iter
            (fun q ->
              check certainty
                (Family.name_to_string family ^ " certainty")
                (Cqa.certainty family c p q)
                (Decompose.certainty family d q);
              Alcotest.(check bool)
                (Family.name_to_string family ^ " consistent_answer")
                (Cqa.consistent_answer family c p q)
                (Decompose.consistent_answer family d q))
            queries)
        Family.all_names
    end
  done

let test_sharded_open_answers_equivalence () =
  let rng = Workload.Prng.create 507 in
  for _ = 1 to 10 do
    let c, p = random_case rng in
    let d = Decompose.make c p in
    List.iter
      (fun family ->
        List.iter
          (fun qtext ->
            let q = Query.Parser.parse_exn qtext in
            let free_w, rows_w = Cqa.consistent_answers_open family c p q in
            let free_s, rows_s = Decompose.consistent_answers_open family d q in
            check
              Alcotest.(list string)
              (Family.name_to_string family ^ " free vars of " ^ qtext)
              free_w free_s;
            Alcotest.(check bool)
              (Family.name_to_string family ^ " certain rows of " ^ qtext)
              true
              (List.sort compare rows_w = List.sort compare rows_s))
          [ "R(x, y, 0)"; "R(x, 0, y)"; "exists y. R(x, y, 0)" ])
      Family.all_names
  done

let test_counters_and_trace () =
  let rel, fds = Workload.Generator.chain_components ~components:5 ~size:3 in
  let c = Conflict.build fds rel in
  let p = Priority.empty c in
  let d = Decompose.make c p in
  let q = Query.Ast.Or (ground_atom c 0, ground_atom c 1) in
  let tr : Core.Sharded.qtrace = Decompose.qtrace Family.Rep d q in
  check certainty "trace verdict = whole graph" (Cqa.certainty Family.Rep c p q)
    tr.verdict;
  check Alcotest.int "components" 5
    (List.length tr.slot_repairs + tr.free_tuples);
  check Alcotest.int "max component" 3 tr.largest;
  (* the ground query touches only component 0, so at most that one
     component's repairs get materialized during the query itself *)
  Alcotest.(check bool) "untouched components not materialized" true
    (tr.query_counters.cache_misses <= 1);
  let product = List.fold_left (fun a n -> a * n) 1 tr.slot_repairs in
  check Alcotest.int "per-component product = count"
    (Decompose.count Family.Rep d)
    product;
  Decompose.reset_counters d;
  check Alcotest.int "reset zeroes hits" 0 (Decompose.counters d).Decompose.cache_hits;
  check Alcotest.int "reset zeroes combos" 0
    (Decompose.counters d).Decompose.combos_streamed;
  Decompose.iter Family.Rep d (fun _ -> ());
  check Alcotest.int "iter streams exactly the family"
    (Decompose.count Family.Rep d)
    (Decompose.counters d).Decompose.combos_streamed;
  (* a replay after reset is served entirely from the warm cache *)
  Decompose.reset_counters d;
  ignore (Decompose.certainty Family.Rep d q);
  check Alcotest.int "warm replay misses nothing" 0
    (Decompose.counters d).Decompose.cache_misses

let test_counter_hygiene () =
  (* counters returns a snapshot: later work must not mutate it; reset
     zeroes every field (including the delta telemetry); distinct
     decompositions keep distinct counter records *)
  let rel, fds = Workload.Generator.chain_components ~components:3 ~size:3 in
  let c = Conflict.build fds rel in
  let p = Priority.empty c in
  let d = Decompose.make c p in
  let before = Decompose.counters d in
  ignore (Decompose.count Family.Rep d);
  check Alcotest.int "snapshot untouched by later work" 0
    before.Decompose.cache_misses;
  Alcotest.(check bool) "the work itself was counted" true
    ((Decompose.counters d).Decompose.cache_misses > 0);
  (* fold one delta in: the returned t shares d's counter record *)
  let tup = Conflict.tuple c (Conflict.size c - 1) in
  let c', delta =
    Result.get_ok (Conflict.apply_delta c ~insert:[] ~delete:[ tup ])
  in
  let p' =
    Result.get_ok
      (Priority.update c' p
         ~dropped:(Vset.of_list delta.Conflict.deleted)
         ~oriented:[])
  in
  let d' = Decompose.apply_delta d c' p' delta in
  check Alcotest.int "delta counted" 1
    (Decompose.counters d').Decompose.deltas_applied;
  check Alcotest.int "shared record: the old handle sees the delta" 1
    (Decompose.counters d).Decompose.deltas_applied;
  (* reset returns every field to zero *)
  Decompose.reset_counters d';
  let z = Decompose.counters d' in
  List.iter
    (fun (label, v) -> check Alcotest.int ("reset zeroes " ^ label) 0 v)
    [
      ("hits", z.Decompose.cache_hits);
      ("misses", z.Decompose.cache_misses);
      ("component repairs", z.Decompose.component_repairs);
      ("combos", z.Decompose.combos_streamed);
      ("examined", z.Decompose.components_examined);
      ("early exits", z.Decompose.early_exits);
      ("deltas", z.Decompose.deltas_applied);
      ("edges added", z.Decompose.edges_added);
      ("edges removed", z.Decompose.edges_removed);
      ("dirtied", z.Decompose.components_dirtied);
      ("evicted", z.Decompose.cache_evicted);
      ("retained", z.Decompose.cache_retained);
    ];
  (* a second decomposition of the same instance counts independently *)
  let e = Decompose.make c p in
  ignore (Decompose.count Family.Rep e);
  check Alcotest.int "d' unaffected by e's work" 0
    (Decompose.counters d').Decompose.cache_misses;
  Alcotest.(check bool) "e counted its own work" true
    ((Decompose.counters e).Decompose.cache_misses > 0)

let test_component_of () =
  let rel, fds = Workload.Generator.ladder 3 in
  let c = Conflict.build fds rel in
  let d = Decompose.make c (Priority.empty c) in
  check Alcotest.int "3 components" 3 (List.length (Decompose.components d));
  let comp0 = Decompose.component_of d 0 in
  Alcotest.(check bool) "vertex in its component" true (Vset.mem 0 comp0);
  check Alcotest.int "ladder components are edges" 2 (Vset.cardinal comp0)

let test_count_within () =
  let rng = Workload.Prng.create 409 in
  for _ = 1 to 15 do
    let c, p = random_case rng in
    let d = Decompose.make c p in
    List.iter
      (fun family ->
        List.iter
          (fun comp ->
            let expected = List.length (Decompose.preferred_within family d comp) in
            (* warm path: the preferred_within call above populated the
               cache, so count_within answers from it *)
            let hits0 = (Decompose.counters d).cache_hits in
            check Alcotest.int "count_within (cached)" expected
              (Decompose.count_within family d comp);
            check Alcotest.bool "cache served the warm count" true
              ((Decompose.counters d).cache_hits > hits0);
            (* cold path: a fresh context has no cache, and counting must
               not create one *)
            let d' = Decompose.make c p in
            let before = (Decompose.counters d').component_repairs in
            check Alcotest.int "count_within (cold)" expected
              (Decompose.count_within family d' comp);
            check Alcotest.int "cold count materialized nothing" before
              ((Decompose.counters d').component_repairs))
          (Decompose.components d))
      Family.all_names
  done

let test_count_saturates () =
  (* 40 chain components with several repairs each: the true product
     overflows 63-bit ints, so [count] must clamp at [max_int] rather
     than wrap to garbage (possibly negative) *)
  let rel, fds = Workload.Generator.chain_components ~components:40 ~size:8 in
  let c = Conflict.build fds rel in
  let d = Decompose.make c (Priority.empty c) in
  let per_component =
    Decompose.count_within Family.Rep d (Decompose.component_of d 0)
  in
  check Alcotest.bool "instance actually overflows" true
    (float_of_int per_component ** 40. > float_of_int max_int);
  check Alcotest.int "saturated" max_int (Decompose.count Family.Rep d)

(* Quantified queries run in each streamed repair as a view of the live
   relation: the columns the query can probe are forced once, on the
   base, so a second run builds no index at all (a materialized repair
   rebuilt each probed column per combination). *)
let index_spans f =
  let buf = Obs.Sink.Memory.create () in
  Obs.Span.set_sink (Some (Obs.Sink.Memory.sink buf));
  let v = Fun.protect ~finally:(fun () -> Obs.Span.set_sink None) f in
  let n =
    List.length
      (List.filter
         (fun (e : Obs.Event.t) ->
           e.phase = Obs.Event.Begin && e.name = "relation.index")
         (Obs.Sink.Memory.events buf))
  in
  (v, n)

let test_views_force_once () =
  let rel, fds =
    Workload.Generator.clustered_conflicts ~facts:200 ~groups:3 ~width:2
  in
  let c = Conflict.build fds rel in
  let d = Decompose.make c (Priority.empty c) in
  (* certainly true, so the full product of 2^3 repairs is walked *)
  let q = Query.Parser.parse_exn "exists b, c. R(1, b, c) and c > 1" in
  (* fill the component cache first: solving a component builds the
     postings of its own compact relation *)
  ignore (Decompose.count Family.Rep d);
  let run () =
    let before = (Decompose.counters d).combos_streamed in
    let v = Decompose.certainty Family.Rep d q in
    (v, (Decompose.counters d).combos_streamed - before)
  in
  let (v1, combos), first = index_spans run in
  check certainty "first run" Cqa.Certainly_true v1;
  check Alcotest.bool "the full product ran" true (combos >= 8);
  (* A was built by the conflict graph; C is the range-scanned column *)
  check Alcotest.int "one build, for C" 1 first;
  let (v2, _), second = index_spans run in
  check certainty "second run" Cqa.Certainly_true v2;
  check Alcotest.int "second run builds no index" 0 second

(* Forcing is per probed column: on 100k facts a query probing only A
   leaves the unique-valued C unbuilt (its postings would cost
   (largest id)^2/126 words). *)
let test_unprobed_columns_stay_lazy () =
  let rel, fds =
    Workload.Generator.clustered_conflicts ~facts:100_000 ~groups:3 ~width:2
  in
  let c = Conflict.build fds rel in
  let d = Decompose.make c (Priority.empty c) in
  let q = Query.Parser.parse_exn "exists b, c. R(1, b, c)" in
  check certainty "verdict" Cqa.Certainly_true (Decompose.certainty Family.Rep d q);
  let base = Conflict.relation c in
  check Alcotest.bool "A built" true (Relational.Relation.postings_ready base 0);
  check Alcotest.bool "B not built" false (Relational.Relation.postings_ready base 1);
  check Alcotest.bool "C not built" false (Relational.Relation.postings_ready base 2)

let suite =
  [
    ("preferred-repair counts match enumeration", `Quick, test_count_matches_enumeration);
    ("stitched component repairs are preferred", `Quick, test_preferred_within_union);
    ("factorized ground certainty = naive", `Quick, test_certainty_matches_naive);
    ("Example 3 through the factorized engine", `Quick, test_certainty_example3);
    ("factorized aggregates = enumeration", `Quick, test_aggregate_matches_enumeration);
    ("scales where enumeration cannot", `Quick, test_scales_beyond_enumeration);
    ("certain/possible tuples = repair intersection/union", `Quick, test_certain_possible_tuples);
    ("certain tuples on the Mgr instance", `Quick, test_certain_tuples_mgr);
    ("component lookup", `Quick, test_component_of);
    ("sharded iter/member/one = whole-graph family", `Quick, test_streaming_iter_equals_family);
    ("sharded member = whole-graph check on random repairs", `Quick, test_member_matches_check);
    ("sharded certainty = whole-graph certainty (all families)", `Quick, test_sharded_certainty_equivalence);
    ("sharded open answers = whole-graph open answers", `Quick, test_sharded_open_answers_equivalence);
    ("observability counters and qtrace evidence", `Quick, test_counters_and_trace);
    ("counter hygiene: snapshot, reset, independence", `Quick, test_counter_hygiene);
    ("count_within = length of preferred_within", `Quick, test_count_within);
    ("count saturates instead of wrapping", `Quick, test_count_saturates);
    ("repair views force each probed column once", `Quick, test_views_force_once);
    ("repair views leave unprobed columns unbuilt", `Quick, test_unprobed_columns_stay_lazy);
  ]
