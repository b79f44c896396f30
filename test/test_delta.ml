(* Tests for the incremental update engine (Core.Delta): after any
   sequence of update batches, the incrementally maintained state must be
   indistinguishable from a from-scratch rebuild of the live instance —
   same components, same preferred-repair counts for every family, same
   certain/possible tuples, same certain answers. *)

open Relational
open Graphs
module Conflict = Core.Conflict
module Priority = Core.Priority
module Family = Core.Family
module Decompose = Core.Decompose
module Delta = Core.Delta
module Pref_rules = Core.Pref_rules
module Cqa = Core.Cqa
module Generator = Workload.Generator
module Prng = Workload.Prng

let check = Alcotest.check

let certainty =
  Alcotest.testable
    (fun ppf c -> Format.pp_print_string ppf (Cqa.certainty_to_string c))
    (fun a b -> a = b)

let ok_exn = function Ok x -> x | Error e -> Alcotest.fail e

let contains = Testlib.contains

(* Score by the B attribute: acyclic for every instance. *)
let score_rule =
  Pref_rules.by_score (fun t ->
      match Value.as_int (Tuple.get t 1) with Some v -> v | None -> 0)

let tuples_of c s =
  List.sort Tuple.compare (List.map (Conflict.tuple c) (Vset.elements s))

(* Components as sorted tuple lists — comparable across engines whose
   vertex numberings differ. *)
let component_profile d =
  let c = Decompose.conflict d in
  List.sort
    (List.compare Tuple.compare)
    (List.map (tuples_of c) (Decompose.components d))

let rebuild fds rule t =
  let c = Conflict.build fds (Delta.relation t) in
  let p = Pref_rules.apply_exn c rule in
  Decompose.make c p

let ground_atom c v =
  Query.Ast.Atom
    ( Schema.name (Conflict.schema c),
      List.map (fun x -> Query.Ast.Const x) (Tuple.values (Conflict.tuple c v))
    )

let check_agrees ?(msg = "") fds rule t =
  let d = Delta.decompose t in
  let d0 = rebuild fds rule t in
  Alcotest.(check bool)
    (msg ^ "components agree")
    true
    (List.equal
       (List.equal Tuple.equal)
       (component_profile d0) (component_profile d));
  List.iter
    (fun family ->
      let name = Family.name_to_string family in
      check Alcotest.int
        (msg ^ name ^ " count agrees")
        (Decompose.count family d0)
        (Decompose.count family d);
      Alcotest.(check bool)
        (msg ^ name ^ " certain tuples agree")
        true
        (List.equal Tuple.equal
           (tuples_of (Decompose.conflict d0)
              (Decompose.certain_tuples family d0))
           (tuples_of (Decompose.conflict d)
              (Decompose.certain_tuples family d)));
      Alcotest.(check bool)
        (msg ^ name ^ " possible tuples agree")
        true
        (List.equal Tuple.equal
           (tuples_of (Decompose.conflict d0)
              (Decompose.possible_tuples family d0))
           (tuples_of (Decompose.conflict d)
              (Decompose.possible_tuples family d)));
      (* ground certainty, queried on both engines' own numbering *)
      let c = Decompose.conflict d and c0 = Decompose.conflict d0 in
      Vset.iter
        (fun v ->
          let q = ground_atom c v in
          let v0 = Conflict.index_exn c0 (Conflict.tuple c v) in
          let q0 = ground_atom c0 v0 in
          check certainty
            (msg ^ name ^ " certainty agrees")
            (Decompose.certainty family d0 q0)
            (Decompose.certainty family d q))
        (Conflict.live c))
    Family.all_names

(* --- random update sequences vs from-scratch rebuild -------------------- *)

let random_batch rng t =
  let rel = Delta.relation t in
  let arr = Relation.tuple_array rel in
  let n_ops = 1 + Prng.int rng 3 in
  let rec build k acc dels =
    if k = 0 then List.rev acc
    else if Array.length arr > 1 && Prng.int rng 2 = 0 then begin
      let x = arr.(Prng.int rng (Array.length arr)) in
      if List.exists (Tuple.equal x) dels then build (k - 1) acc dels
      else build (k - 1) (Delta.Delete x :: acc) (x :: dels)
    end
    else begin
      let x =
        Tuple.make
          [
            Value.Int (Prng.int rng 4);
            Value.Int (Prng.int rng 2);
            Value.Int (Prng.int rng 2);
          ]
      in
      let dup =
        List.exists
          (function Delta.Insert y -> Tuple.equal x y | Delta.Delete _ -> false)
          acc
      in
      (* live tuples may be inserted only when the same batch deletes
         them (delete + re-insert); fresh values always qualify *)
      if dup || (Relation.mem rel x && not (List.exists (Tuple.equal x) dels))
      then build (k - 1) acc dels
      else build (k - 1) (Delta.Insert x :: acc) dels
    end
  in
  build n_ops [] []

let test_random_equivalence () =
  let rng = Prng.create 811 in
  for _ = 1 to 10 do
    let rel, fds =
      Generator.random_instance rng ~n:10 ~key_values:4 ~payload_values:2
    in
    let t = ok_exn (Delta.create ~rule:score_rule fds rel) in
    for step = 1 to 6 do
      let batch = random_batch rng t in
      (match Delta.apply t batch with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e);
      check_agrees ~msg:(Printf.sprintf "step %d: " step) fds score_rule t
    done
  done

let test_random_undo_equivalence () =
  let rng = Prng.create 813 in
  for _ = 1 to 8 do
    let rel, fds =
      Generator.random_instance rng ~n:8 ~key_values:3 ~payload_values:2
    in
    let t = ok_exn (Delta.create ~rule:score_rule fds rel) in
    let depth = 1 + Prng.int rng 3 in
    for _ = 1 to depth do
      match Delta.apply t (random_batch rng t) with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e
    done;
    for _ = 1 to depth do
      match Delta.undo t with Ok _ -> () | Error e -> Alcotest.fail e
    done;
    check Alcotest.int "history drained" 0 (Delta.history_depth t);
    Alcotest.(check bool)
      "undone instance equals the original" true
      (Relation.equal rel (Delta.relation t));
    check_agrees ~msg:"after undo: " fds score_rule t
  done

(* --- directed unit tests ------------------------------------------------ *)

let clusters () =
  let rel, fds = Generator.key_clusters ~groups:2 ~width:2 in
  (rel, fds, ok_exn (Delta.create fds rel))

let row a b c = Tuple.make [ Value.Int a; Value.Int b; Value.Int c ]

let test_insert_creates_conflicts () =
  let _, _, t = clusters () in
  (* each cluster is a 2-clique: 2 * 2 preferred repairs *)
  check Alcotest.int "initial count" 4 (Decompose.count Family.Rep (Delta.decompose t));
  let r = ok_exn (Delta.apply t [ Delta.Insert (row 0 9 9) ]) in
  check Alcotest.int "one tuple in" 1 r.Delta.inserted;
  check Alcotest.int "two new edges" 2 r.Delta.edges_added;
  check Alcotest.int "one component dirtied" 1 r.Delta.components_dirtied;
  check Alcotest.int "count grows" 6 (Decompose.count Family.Rep (Delta.decompose t));
  (* a conflict-free insert forms its own singleton component *)
  let r = ok_exn (Delta.apply t [ Delta.Insert (row 7 0 0) ]) in
  check Alcotest.int "no new edges" 0 r.Delta.edges_added;
  check Alcotest.int "nothing dirtied" 0 r.Delta.components_dirtied;
  check Alcotest.int "singleton multiplies the count by 1" 6
    (Decompose.count Family.Rep (Delta.decompose t))

let test_delete_splits_component () =
  let rel, fds = Generator.chain 5 in
  let t = ok_exn (Delta.create fds rel) in
  let d = Delta.decompose t in
  check Alcotest.int "one path component" 1 (List.length (Decompose.components d));
  (* any interior vertex of the 5-path: deleting it leaves two pieces *)
  let c = Delta.conflict t in
  let g = Conflict.graph c in
  let mid =
    Vset.min_elt
      (Vset.filter
         (fun v -> Vset.cardinal (Graphs.Undirected.neighbors g v) = 2)
         (Conflict.live c))
  in
  let r = ok_exn (Delta.apply t [ Delta.Delete (Conflict.tuple c mid) ]) in
  check Alcotest.int "edges fell" 2 r.Delta.edges_removed;
  let d = Delta.decompose t in
  check Alcotest.int "path split in two" 2 (List.length (Decompose.components d))

let test_rejected_batch_leaves_no_trace () =
  let rel, _fds, t = clusters () in
  let before = component_profile (Delta.decompose t) in
  (* deleting an absent tuple *)
  (match Delta.apply t [ Delta.Delete (row 9 9 9) ] with
  | Ok _ -> Alcotest.fail "deleting an absent tuple must fail"
  | Error _ -> ());
  (* inserting a live tuple *)
  let live = (Relation.tuple_array rel).(0) in
  (match Delta.apply t [ Delta.Insert live ] with
  | Ok _ -> Alcotest.fail "inserting a live tuple must fail"
  | Error _ -> ());
  (* schema mismatch *)
  (match Delta.apply t [ Delta.Insert (Tuple.make [ Value.Int 1 ]) ] with
  | Ok _ -> Alcotest.fail "arity mismatch must fail"
  | Error _ -> ());
  check Alcotest.int "no history" 0 (Delta.history_depth t);
  Alcotest.(check bool)
    "state unchanged" true
    (Relation.equal rel (Delta.relation t)
    && List.equal
         (List.equal Tuple.equal)
         before
         (component_profile (Delta.decompose t)))

let test_cyclic_rule_rejected () =
  (* rock-paper-scissors on B: fine on two tuples, cyclic on three *)
  let schema = Schema.make "R" [ ("A", Schema.TInt); ("B", Schema.TInt) ] in
  let tup b = Tuple.make [ Value.Int 0; Value.Int b ] in
  let rel = Relation.of_tuples schema [ tup 0; tup 1 ] in
  let fds = [ Constraints.Fd.make [ "A" ] [ "B" ] ] in
  let beats x y =
    match (Value.as_int (Tuple.get x 1), Value.as_int (Tuple.get y 1)) with
    | Some bx, Some by -> (bx + 1) mod 3 = by
    | _, _ -> false
  in
  let t = ok_exn (Delta.create ~rule:beats fds rel) in
  let before = component_profile (Delta.decompose t) in
  (match Delta.apply t [ Delta.Insert (tup 2) ] with
  | Ok _ -> Alcotest.fail "cycle-inducing insert must fail"
  | Error e ->
    Alcotest.(check bool)
      "error mentions the cycle" true
      (contains ~needle:"cyclic" e));
  check Alcotest.int "no history" 0 (Delta.history_depth t);
  Alcotest.(check bool)
    "state unchanged" true
    (List.equal
       (List.equal Tuple.equal)
       before
       (component_profile (Delta.decompose t)))

let test_cache_retention () =
  let rel, fds = Generator.chain_components ~components:3 ~size:4 in
  let t = ok_exn (Delta.create fds rel) in
  let d = Delta.decompose t in
  (* warm the cache for one family across all three components *)
  let _ = Decompose.count Family.Rep d in
  let victim = Conflict.tuple (Delta.conflict t) 0 in
  let r = ok_exn (Delta.apply t [ Delta.Delete victim ]) in
  check Alcotest.int "one component dirtied" 1 r.Delta.components_dirtied;
  check Alcotest.int "one cache entry evicted" 1 r.Delta.cache_evicted;
  check Alcotest.int "two cache entries retained" 2 r.Delta.cache_retained;
  (* recount: only the dirtied component misses *)
  let d = Delta.decompose t in
  let before = Decompose.counters d in
  let _ = Decompose.count Family.Rep d in
  let after = Decompose.counters d in
  check Alcotest.int "two hits on retained entries" 2
    (after.Decompose.cache_hits - before.Decompose.cache_hits);
  check Alcotest.int "one miss on the dirtied component" 1
    (after.Decompose.cache_misses - before.Decompose.cache_misses)

let test_empty_batch_and_reinsert () =
  let rel, fds, t = clusters () in
  let r = ok_exn (Delta.apply t []) in
  check Alcotest.int "empty batch: nothing in" 0 r.Delta.inserted;
  check Alcotest.int "empty batch: nothing dirtied" 0 r.Delta.components_dirtied;
  (* delete + re-insert the same tuple value in one batch *)
  let x = (Relation.tuple_array rel).(0) in
  let r = ok_exn (Delta.apply t [ Delta.Delete x; Delta.Insert x ]) in
  check Alcotest.int "reinsert: one in, one out" 2 (r.Delta.inserted + r.Delta.deleted);
  Alcotest.(check bool)
    "instance unchanged by delete+reinsert" true
    (Relation.equal rel (Delta.relation t));
  check_agrees ~msg:"after reinsert: " fds (fun _ _ -> false) t

let test_undo_restores_counts () =
  let rel, _fds, t = clusters () in
  let count () = Decompose.count Family.Rep (Delta.decompose t) in
  let c0 = count () in
  let _ = ok_exn (Delta.apply t [ Delta.Insert (row 0 9 9) ]) in
  let _ = ok_exn (Delta.apply t [ Delta.Delete (row 0 9 9); Delta.Insert (row 5 5 5) ]) in
  check Alcotest.int "two batches recorded" 2 (Delta.history_depth t);
  let _ = ok_exn (Delta.undo t) in
  let _ = ok_exn (Delta.undo t) in
  check Alcotest.int "count restored" c0 (count ());
  Alcotest.(check bool)
    "relation restored" true
    (Relation.equal rel (Delta.relation t));
  match Delta.undo t with
  | Ok _ -> Alcotest.fail "undo past the beginning must fail"
  | Error _ -> ()

let test_index_total_and_stable () =
  (* vertex ids ARE the relation's fact ids: Conflict.index must be total
     on the live instance, agree with Relation.find, survive
     insert/delete/undo round-trips for untouched tuples, and a rebuild
     from the delta'd relation must reproduce the numbering exactly *)
  let rng = Prng.create 977 in
  for _ = 1 to 6 do
    let rel, fds =
      Generator.random_instance rng ~n:10 ~key_values:4 ~payload_values:2
    in
    let t = ok_exn (Delta.create ~rule:score_rule fds rel) in
    let snapshot () =
      let c = Delta.conflict t in
      Vset.fold
        (fun v acc -> (Conflict.tuple c v, v) :: acc)
        (Conflict.live c) []
    in
    let check_total msg =
      let c = Delta.conflict t in
      Vset.iter
        (fun v ->
          check
            Alcotest.(option int)
            (msg ^ ": index total on live vertices")
            (Some v)
            (Conflict.index c (Conflict.tuple c v)))
        (Conflict.live c);
      Relation.iter
        (fun tu ->
          check
            Alcotest.(option int)
            (msg ^ ": index = Relation.find")
            (Relation.find (Conflict.relation c) tu)
            (Conflict.index c tu))
        (Delta.relation t);
      (* a from-scratch rebuild numbers the same tuples identically *)
      let c0 = Conflict.build fds (Delta.relation t) in
      Vset.iter
        (fun v ->
          check
            Alcotest.(option int)
            (msg ^ ": rebuild keeps ids")
            (Some v)
            (Conflict.index c0 (Conflict.tuple c v)))
        (Conflict.live c)
    in
    check_total "initial";
    for step = 1 to 4 do
      let before = snapshot () in
      let batch = random_batch rng t in
      (match Delta.apply t batch with Ok _ -> () | Error e -> Alcotest.fail e);
      let c = Delta.conflict t in
      let msg = Printf.sprintf "step %d" step in
      check_total msg;
      List.iter
        (fun (tu, v) ->
          let touched =
            List.exists
              (function
                | Delta.Delete x | Delta.Insert x -> Tuple.equal x tu)
              batch
          in
          if not touched then
            check
              Alcotest.(option int)
              (msg ^ ": untouched tuple keeps its id")
              (Some v) (Conflict.index c tu))
        before
    done;
    while Delta.history_depth t > 0 do
      match Delta.undo t with Ok _ -> () | Error e -> Alcotest.fail e
    done;
    check_total "after undo"
  done

let suite =
  [
    ("random updates: incremental = rebuild", `Quick, test_random_equivalence);
    ("random updates: undo = rewind", `Quick, test_random_undo_equivalence);
    ("insert creates conflicts", `Quick, test_insert_creates_conflicts);
    ("delete splits a component", `Quick, test_delete_splits_component);
    ("rejected batch leaves no trace", `Quick, test_rejected_batch_leaves_no_trace);
    ("cyclic rule rejected at update time", `Quick, test_cyclic_rule_rejected);
    ("cache survives for untouched components", `Quick, test_cache_retention);
    ("empty batch and delete+reinsert", `Quick, test_empty_batch_and_reinsert);
    ("undo restores counts and instance", `Quick, test_undo_restores_counts);
    ("index total and id-stable under updates", `Quick, test_index_total_and_stable);
  ]
