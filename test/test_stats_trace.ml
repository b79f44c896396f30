(* Tests for the engine's instance summary and Algorithm 1 traces. *)

open Graphs
module Decompose = Core.Decompose
module Trace = Core.Trace
module Family = Core.Family
module Conflict = Core.Conflict
module Priority = Core.Priority

let check = Alcotest.check

let mgr_with_priority () =
  let rel, fds, prov = Testlib.mgr () in
  let c = Conflict.build fds rel in
  let rule =
    Result.get_ok
      (Core.Pref_rules.source_reliability prov
         ~more_reliable_than:[ ("s1", "s3"); ("s2", "s3") ])
  in
  (c, Core.Pref_rules.apply_exn c rule)

let summary family c p : Core.Sharded.summary =
  Decompose.summary family (Decompose.make c p)

let test_stats_mgr () =
  let c, p = mgr_with_priority () in
  let s = summary Family.C c p in
  check Alcotest.int "tuples" 4 s.tuples;
  check Alcotest.int "edges" 3 s.conflict_edges;
  check Alcotest.int "conflicting tuples" 4 s.conflicting_tuples;
  check Alcotest.int "one component" 1 s.components;
  check Alcotest.int "largest" 4 s.largest_component;
  check Alcotest.int "oriented" 2 s.oriented_arcs;
  Alcotest.(check bool) "partial" false (s.unoriented_pairs = 0);
  check Alcotest.int "3 repairs" 3 s.repair_count;
  check Alcotest.int "2 preferred" 2 s.preferred_count;
  check Alcotest.int "no certain" 0 s.certain;
  check Alcotest.int "all disputed" 4 s.disputed;
  check Alcotest.int "none excluded" 0 s.excluded

let test_stats_consistent () =
  let rel, fds =
    ( Relational.Relation.of_rows
        (Relational.Schema.make "R"
           [ ("A", Relational.Schema.TInt); ("B", Relational.Schema.TInt) ])
        [ [ Relational.Value.int 1; Relational.Value.int 1 ] ],
      [ Constraints.Fd.make [ "A" ] [ "B" ] ] )
  in
  let c = Conflict.build fds rel in
  let s = summary Family.Rep c (Priority.empty c) in
  check Alcotest.int "no conflicts" 0 s.conflict_edges;
  check Alcotest.int "one repair" 1 s.repair_count;
  check Alcotest.int "everything certain" 1 s.certain;
  Alcotest.(check bool) "empty priority is total here" true (s.unoriented_pairs = 0)

let test_stats_counts_consistent_with_decompose () =
  let rng = Workload.Prng.create 601 in
  for _ = 1 to 10 do
    let rel, fds =
      Workload.Generator.random_two_fd_instance rng ~n:10 ~a_values:3 ~c_values:3
        ~v_values:2
    in
    let c = Conflict.build fds rel in
    let p = Workload.Generator.random_priority rng ~density:0.5 c in
    let s = summary Family.G c p in
    check Alcotest.int "preferred = enumeration"
      (List.length (Family.repairs Family.G c p))
      s.preferred_count;
    check Alcotest.int "certain+disputed+excluded = tuples" s.tuples
      (s.certain + s.disputed + s.excluded)
  done

let test_stats_compute_with_reuses_cache () =
  let c, p = mgr_with_priority () in
  let d = Decompose.make c p in
  let cold : Core.Sharded.summary = Decompose.summary Family.C d in
  check Alcotest.int "cold run misses once per component" 1
    cold.fate_counters.cache_misses;
  check Alcotest.int "cold run caches the preferred repairs" 2
    cold.fate_counters.component_repairs;
  let warm : Core.Sharded.summary = Decompose.summary Family.C d in
  check Alcotest.int "warm run never misses" 0 warm.fate_counters.cache_misses;
  Alcotest.(check bool) "warm run hits the cache" true
    (warm.fate_counters.cache_hits > 0);
  check Alcotest.int "verdicts unchanged" cold.preferred_count
    warm.preferred_count

let test_trace_result_matches_clean () =
  let rng = Workload.Prng.create 603 in
  for _ = 1 to 15 do
    let rel, fds =
      Workload.Generator.random_instance rng ~n:12 ~key_values:4 ~payload_values:2
    in
    let c = Conflict.build fds rel in
    let p = Workload.Generator.random_priority rng ~density:0.6 c in
    let t = Trace.clean c p in
    check Testlib.vset "trace result = clean" (Core.Winnow.clean c p) t.Trace.result
  done

let test_trace_structure () =
  let c, p = mgr_with_priority () in
  let t = Trace.clean c p in
  (* each step's pick is in its winnow set, and the steps partition the
     instance into picks and removals *)
  List.iter
    (fun step ->
      Alcotest.(check bool) "pick in winnow" true
        (Vset.mem step.Trace.picked step.Trace.winnow))
    t.Trace.steps;
  let covered =
    List.fold_left
      (fun acc step -> Vset.union acc (Vset.add step.Trace.picked step.Trace.removed))
      Vset.empty t.Trace.steps
  in
  check Testlib.vset "steps cover the instance"
    (Vset.of_range (Conflict.size c))
    covered;
  check Alcotest.int "picks = result size"
    (Vset.cardinal t.Trace.result)
    (List.length t.Trace.steps)

let test_pp_smoke () =
  let c, p = mgr_with_priority () in
  let rel, fds, provenance = Testlib.mgr () in
  let st =
    Shell.Session.of_spec
      {
        Dbio.Instance_format.relation = rel;
        fds;
        denials = [];
        provenance;
        prefs =
          [
            Dbio.Instance_format.Source_pair ("s1", "s3");
            Dbio.Instance_format.Source_pair ("s2", "s3");
          ];
      }
  in
  Alcotest.(check bool) "stats render" true
    (String.length (snd (Shell.Session.exec st "stats")) > 20);
  Alcotest.(check bool) "trace renders" true
    (String.length (Format.asprintf "%a" (Trace.pp c) (Trace.clean c p)) > 20)

let suite =
  [
    ("stats on the Mgr instance", `Quick, test_stats_mgr);
    ("stats on a consistent instance", `Quick, test_stats_consistent);
    ("stats agree with decompose", `Quick, test_stats_counts_consistent_with_decompose);
    ("compute_with reuses the component cache", `Quick, test_stats_compute_with_reuses_cache);
    ("trace result = clean", `Quick, test_trace_result_matches_clean);
    ("trace structure", `Quick, test_trace_structure);
    ("printers render", `Quick, test_pp_smoke);
  ]
