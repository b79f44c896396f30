(* Property-based tests (QCheck, registered as alcotest cases).

   Random instances are drawn through the deterministic workload
   generators: the QCheck generator produces (seed, size parameters) and
   the property derives the instance, so failures print a reproducible
   configuration. *)

open Graphs
module Conflict = Core.Conflict
module Priority = Core.Priority
module Repair = Core.Repair
module Family = Core.Family
module Optimality = Core.Optimality
module Winnow = Core.Winnow

type case = {
  seed : int;
  n : int;
  shape : int;  (* 0: one key; 1: two FDs; 2: ladder; 3: cycle *)
  density_pct : int;
}

let case_gen =
  QCheck2.Gen.(
    let* seed = int_bound 1_000_000 in
    let* n = int_range 2 10 in
    let* shape = int_bound 3 in
    let* density_pct = int_bound 100 in
    return { seed; n; shape; density_pct })

let case_print c =
  Printf.sprintf "{seed=%d; n=%d; shape=%d; density=%d%%}" c.seed c.n c.shape
    c.density_pct

let build_case c =
  let rng = Workload.Prng.create c.seed in
  let rel, fds =
    match c.shape with
    | 0 -> Workload.Generator.random_instance rng ~n:c.n ~key_values:3 ~payload_values:2
    | 1 ->
      Workload.Generator.random_two_fd_instance rng ~n:c.n ~a_values:3 ~c_values:3
        ~v_values:2
    | 2 -> Workload.Generator.ladder (max 1 (c.n / 2))
    | _ -> Workload.Generator.mutual_cycle (max 2 (c.n / 2))
  in
  let conflict = Conflict.build fds rel in
  let p =
    Workload.Generator.random_priority rng
      ~density:(float_of_int c.density_pct /. 100.)
      conflict
  in
  (conflict, p)

let prop name ?(count = 60) f =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count ~print:case_print case_gen f)

let subset l1 l2 = List.for_all (fun s -> List.exists (Vset.equal s) l2) l1
let set_equal l1 l2 = subset l1 l2 && subset l2 l1

(* --- properties ------------------------------------------------------------ *)

let repairs_are_maximal =
  prop "every enumerated repair is a maximal independent set" (fun c ->
      let conflict, _ = build_case c in
      List.for_all (Repair.is_repair conflict) (Repair.all conflict))

let containment_chain =
  prop "C ⊆ G ⊆ S ⊆ L ⊆ Rep" (fun c ->
      let conflict, p = build_case c in
      let rep = Family.repairs Family.Rep conflict p in
      let l = Family.repairs Family.L conflict p in
      let s = Family.repairs Family.S conflict p in
      let g = Family.repairs Family.G conflict p in
      let cr = Family.repairs Family.C conflict p in
      subset cr g && subset g s && subset s l && subset l rep)

let p1_nonempty =
  prop "P1: every family selects at least one repair" (fun c ->
      let conflict, p = build_case c in
      List.for_all
        (fun f -> Family.repairs f conflict p <> [])
        Family.all_names)

let p2_one_step =
  prop ~count:40 "P2: one-step extensions only narrow the selection" (fun c ->
      let conflict, p = build_case c in
      List.for_all
        (fun f ->
          let before = Family.repairs f conflict p in
          List.for_all
            (fun p' -> subset (Family.repairs f conflict p') before)
            (Priority.one_step_extensions conflict p))
        [ Family.L; Family.S; Family.G; Family.C ])

let p4_total =
  prop "P4: G and C are singletons under the totalized priority" (fun c ->
      let conflict, p = build_case c in
      let total = Priority.totalize conflict p in
      List.length (Family.repairs Family.G conflict total) = 1
      && List.length (Family.repairs Family.C conflict total) = 1)

let prop1_confluence =
  prop "Prop 1: Algorithm 1 is choice-independent for total priorities"
    (fun c ->
      let conflict, p = build_case c in
      let total = Priority.totalize conflict p in
      Vset.equal
        (Winnow.clean ~choose:Vset.min_elt conflict total)
        (Winnow.clean ~choose:Vset.max_elt conflict total))

let prop5_equivalence =
  prop ~count:30 "Prop 5: ≪-maximality = the replacement definition" (fun c ->
      let conflict, p = build_case c in
      Conflict.size conflict > 9
      || List.for_all
           (fun r' ->
             Optimality.is_globally_optimal conflict p r'
             = Optimality.is_globally_optimal_by_replacement conflict p r')
           (Repair.all conflict))

let prop7_c_membership =
  prop "Prop 7: PTIME C-check = Algorithm 1 enumeration" (fun c ->
      let conflict, p = build_case c in
      let c_rep = Winnow.all_results conflict p in
      List.for_all
        (fun r' ->
          Winnow.is_result conflict p r' = List.exists (Vset.equal r') c_rep)
        (Repair.all conflict))

let clean_in_c_rep =
  prop "every Algorithm 1 run lands in C-Rep (hence in G-Rep)" (fun c ->
      let conflict, p = build_case c in
      let r' = Winnow.clean conflict p in
      Winnow.is_result conflict p r'
      && Optimality.is_globally_optimal conflict p r')

(* Theorem 2: if the priority cannot be extended to a cyclic orientation
   of the conflict graph, C-Rep and G-Rep coincide. Tested by brute force
   over all orientations of the unoriented edges. *)
let theorem2 =
  prop ~count:40 "Theorem 2: no cyclic extension ⇒ C-Rep = G-Rep" (fun c ->
      let conflict, p = build_case c in
      let unoriented = Priority.unoriented conflict p in
      if List.length unoriented > 8 then true
      else begin
        let base_arcs = Priority.arcs p in
        let extendable_to_cycle = ref false in
        let k = List.length unoriented in
        for mask = 0 to (1 lsl k) - 1 do
          let arcs =
            base_arcs
            @ List.mapi
                (fun i (u, v) ->
                  if mask land (1 lsl i) <> 0 then (u, v) else (v, u))
                unoriented
          in
          if Digraph.has_cycle (Digraph.create (Conflict.size conflict) arcs)
          then extendable_to_cycle := true
        done;
        !extendable_to_cycle
        || set_equal
             (Family.repairs Family.C conflict p)
             (Family.repairs Family.G conflict p)
      end)

let ground_cqa_agreement =
  prop ~count:40 "PTIME ground CQA = enumeration-based certainty" (fun c ->
      let conflict, _ = build_case c in
      let rng = Workload.Prng.create (c.seed + 7919) in
      let tuples = Conflict.tuples conflict in
      if Array.length tuples = 0 then true
      else begin
        let fact () =
          let t = tuples.(Workload.Prng.int rng (Array.length tuples)) in
          Query.Ast.Atom
            ( Relational.Schema.name (Conflict.schema conflict),
              List.map (fun v -> Query.Ast.Const v) (Relational.Tuple.values t) )
        in
        let lit () =
          if Workload.Prng.bool rng then fact () else Query.Ast.Not (fact ())
        in
        let q =
          Query.Ast.Or (Query.Ast.And (lit (), lit ()), Query.Ast.And (lit (), lit ()))
        in
        let naive =
          Core.Cqa.certainty Family.Rep conflict (Priority.empty conflict) q
        in
        match Core.Cqa.ground_certainty conflict q with
        | Error _ -> false
        | Ok fast -> naive = fast
      end)

let one_key_l_equals_s =
  (* Prop. 3: for one key dependency L-Rep coincides with S-Rep. *)
  prop ~count:50 "Prop 3: one key ⇒ L-Rep = S-Rep" (fun c ->
      let rng = Workload.Prng.create c.seed in
      let rel, fds =
        Workload.Generator.random_instance rng ~n:c.n ~key_values:3
          ~payload_values:2
      in
      let conflict = Conflict.build fds rel in
      let p =
        Workload.Generator.random_priority rng
          ~density:(float_of_int c.density_pct /. 100.)
          conflict
      in
      set_equal (Family.repairs Family.L conflict p) (Family.repairs Family.S conflict p))

let cluster_s_equals_g =
  (* The tenable version of Prop. 4's coincidence claim: on cluster
     conflict graphs (one KEY dependency) L = S = G. The literal "one FD"
     version is refuted by a duplicate-regime counterexample — see
     test_optimality and EXPERIMENTS.md erratum 3. *)
  prop ~count:50 "one key ⇒ L-Rep = S-Rep = G-Rep" (fun c ->
      let rng = Workload.Prng.create c.seed in
      let rel, fds =
        Workload.Generator.random_instance rng ~n:c.n ~key_values:3
          ~payload_values:3
      in
      let conflict = Conflict.build fds rel in
      let p =
        Workload.Generator.random_priority rng
          ~density:(float_of_int c.density_pct /. 100.)
          conflict
      in
      let s = Family.repairs Family.S conflict p in
      set_equal (Family.repairs Family.L conflict p) s
      && set_equal s (Family.repairs Family.G conflict p))

let totalize_preserves_c_result =
  prop "C-Rep of a total extension refines C-Rep (P2 along totalize)" (fun c ->
      let conflict, p = build_case c in
      let total = Priority.totalize conflict p in
      subset (Family.repairs Family.C conflict total) (Family.repairs Family.C conflict p))

let aggregates_within_bounds =
  prop ~count:40 "preferred aggregate ranges nest inside Rep ranges" (fun c ->
      let conflict, p = build_case c in
      match
        ( Core.Aggregate.range_preferred Family.G conflict p Core.Aggregate.Count_all,
          Core.Aggregate.range_preferred Family.Rep conflict p Core.Aggregate.Count_all )
      with
      | Ok pref, Ok full -> (
        match (pref.Core.Aggregate.glb, pref.Core.Aggregate.lub,
               full.Core.Aggregate.glb, full.Core.Aggregate.lub) with
        | Some pg, Some pl, Some fg, Some fl -> fg <= pg && pl <= fl
        | _ -> true)
      | _ -> false)

let planner_matches_evaluator =
  (* random conjunctive queries over the case's instance: the cost-based
     planner compiles every one and agrees with the active-domain
     evaluator *)
  prop ~count:60 "query planner = active-domain evaluator" (fun c ->
      let conflict, _ = build_case c in
      let rel = Conflict.relation conflict in
      let db = Relational.Database.of_relations [ rel ] in
      let rng = Workload.Prng.create (c.seed + 104729) in
      let arity = Relational.Schema.arity (Relational.Relation.schema rel) in
      let rel_name = Relational.Schema.name (Relational.Relation.schema rel) in
      let vars = [ "v0"; "v1"; "v2"; "v3" ] in
      let term () =
        if Workload.Prng.int rng 4 = 0 then
          Query.Ast.Const (Relational.Value.Int (Workload.Prng.int rng 3))
        else Query.Ast.Var (Workload.Prng.pick rng vars)
      in
      let atom () =
        Query.Ast.Atom (rel_name, List.init arity (fun _ -> term ()))
      in
      let n_atoms = 1 + Workload.Prng.int rng 2 in
      let conjuncts = List.init n_atoms (fun _ -> atom ()) in
      let body = Query.Ast.conj conjuncts in
      let used = Query.Ast.free_vars body in
      let body =
        (* a comparison between variables already bound by atoms *)
        if List.length used >= 2 && Workload.Prng.bool rng then
          let x = Workload.Prng.pick rng used in
          let y = Workload.Prng.pick rng used in
          Query.Ast.And
            (body, Query.Ast.Cmp (Query.Ast.Leq, Query.Ast.Var x, Query.Ast.Var y))
        else body
      in
      let q = Query.Ast.exists used body in
      Query.Eval.holds db q = Planner.Engine.holds db q
      && Planner.Engine.planned db q)

let planner_answers_match_evaluator =
  (* random OPEN existential-conjunctive queries over a two-relation
     database (one name-typed column in play): the compiled physical
     plan must return exactly the evaluator's answer set — free
     variables, rows, order and all. Comparisons include the degenerate
     name-order cases, so this locks the aligned semantics end to end. *)
  prop ~count:60 "planner open answers = evaluator answers" (fun c ->
      let conflict, _ = build_case c in
      let rel = Conflict.relation conflict in
      let rng = Workload.Prng.create (c.seed + 65537) in
      let schema_s =
        Relational.Schema.make "S"
          [ ("X", Relational.Schema.TInt); ("L", Relational.Schema.TName) ]
      in
      let rel_s =
        Relational.Relation.of_rows schema_s
          (List.init 4 (fun i ->
               [
                 Relational.Value.Int i;
                 Relational.Value.Name (Printf.sprintf "n%d" (i mod 3));
               ]))
      in
      let db = Relational.Database.of_relations [ rel; rel_s ] in
      let arity = Relational.Schema.arity (Relational.Relation.schema rel) in
      let rel_name = Relational.Schema.name (Relational.Relation.schema rel) in
      let vars = [ "v0"; "v1"; "v2"; "v3"; "v4" ] in
      let term () =
        if Workload.Prng.int rng 5 = 0 then
          Query.Ast.Const (Relational.Value.Int (Workload.Prng.int rng 3))
        else Query.Ast.Var (Workload.Prng.pick rng vars)
      in
      let r_atom () =
        Query.Ast.Atom (rel_name, List.init arity (fun _ -> term ()))
      in
      let s_atom () =
        Query.Ast.Atom
          ( "S",
            [
              term ();
              (if Workload.Prng.int rng 3 = 0 then
                 Query.Ast.Const
                   (Relational.Value.Name
                      (Printf.sprintf "n%d" (Workload.Prng.int rng 3)))
               else Query.Ast.Var (Workload.Prng.pick rng [ "w0"; "w1" ]));
            ] )
      in
      let atoms =
        List.init (1 + Workload.Prng.int rng 2) (fun _ -> r_atom ())
        @ (if Workload.Prng.bool rng then [ s_atom () ] else [])
      in
      let body = Query.Ast.conj atoms in
      let used = Query.Ast.free_vars body in
      let body =
        if List.length used >= 2 && Workload.Prng.bool rng then
          let x = Workload.Prng.pick rng used in
          let y = Workload.Prng.pick rng used in
          let op =
            Workload.Prng.pick rng
              [
                Query.Ast.Lt; Query.Ast.Leq; Query.Ast.Geq; Query.Ast.Gt;
                Query.Ast.Eq; Query.Ast.Neq;
              ]
          in
          Query.Ast.And
            (body, Query.Ast.Cmp (op, Query.Ast.Var x, Query.Ast.Var y))
        else body
      in
      (* quantify a random subset of the variables; the rest stay free *)
      let bound = List.filter (fun _ -> Workload.Prng.bool rng) used in
      let q = Query.Ast.exists bound body in
      (* the whole fragment must be plannable *)
      Planner.Engine.planned db q
      &&
      let pfree, prows = Planner.Engine.answers db q in
      let efree, erows = Query.Eval.answers db q in
      List.equal String.equal pfree efree
      && List.equal (List.equal Relational.Value.equal) prows erows)

let cost_planner_widened_matches_evaluator =
  (* random queries over the WIDENED fragment — disjunction, negated
     atoms, bounded universals, int range comparisons against constants
     and variables — the cost-based planner must agree with the
     active-domain evaluator whenever it plans, and its evaluator
     fallback keeps the unsafe shapes agreeing trivially. Runs under
     whatever PREFDB_JOBS the suite was launched with (the CI matrix
     covers 1/2/4). *)
  prop ~count:80 "cost-based planner = evaluator on the widened fragment"
    (fun c ->
      let conflict, _ = build_case c in
      let rel = Conflict.relation conflict in
      let db = Relational.Database.of_relations [ rel ] in
      let rng = Workload.Prng.create (c.seed + 2468) in
      let arity = Relational.Schema.arity (Relational.Relation.schema rel) in
      let rel_name = Relational.Schema.name (Relational.Relation.schema rel) in
      let vars = [ "v0"; "v1"; "v2"; "v3" ] in
      let term () =
        if Workload.Prng.int rng 4 = 0 then
          Query.Ast.Const (Relational.Value.Int (Workload.Prng.int rng 4))
        else Query.Ast.Var (Workload.Prng.pick rng vars)
      in
      let atom () =
        Query.Ast.Atom (rel_name, List.init arity (fun _ -> term ()))
      in
      let cmp_over used =
        let x = Workload.Prng.pick rng used in
        let op =
          Workload.Prng.pick rng
            [
              Query.Ast.Lt; Query.Ast.Leq; Query.Ast.Geq; Query.Ast.Gt;
              Query.Ast.Eq; Query.Ast.Neq;
            ]
        in
        let rhs =
          if Workload.Prng.bool rng then
            Query.Ast.Const (Relational.Value.Int (Workload.Prng.int rng 5))
          else Query.Ast.Var (Workload.Prng.pick rng used)
        in
        Query.Ast.Cmp (op, Query.Ast.Var x, rhs)
      in
      let block () =
        let atoms = List.init (1 + Workload.Prng.int rng 2) (fun _ -> atom ()) in
        let body = Query.Ast.conj atoms in
        let used = Query.Ast.free_vars body in
        let body =
          if used <> [] && Workload.Prng.bool rng then
            Query.Ast.And (body, cmp_over used)
          else body
        in
        if Workload.Prng.int rng 3 = 0 then
          Query.Ast.And (body, Query.Ast.Not (atom ()))
        else body
      in
      let q =
        if Workload.Prng.int rng 4 = 0 then begin
          (* bounded universal: forall x̄. R(x̄) implies (cmp | atom) *)
          let vs = List.init arity (Printf.sprintf "u%d") in
          let head =
            Query.Ast.Atom (rel_name, List.map (fun v -> Query.Ast.Var v) vs)
          in
          let concl =
            if Workload.Prng.bool rng then cmp_over vs else atom ()
          in
          Query.Ast.Forall (vs, Query.Ast.Implies (head, concl))
        end
        else begin
          let body =
            if Workload.Prng.bool rng then
              Query.Ast.Or (block (), block ())
            else block ()
          in
          let used = Query.Ast.free_vars body in
          let bound =
            List.filter (fun _ -> Workload.Prng.bool rng) used
          in
          Query.Ast.exists bound body
        end
      in
      if Query.Ast.is_closed q then
        Query.Eval.holds db q = Planner.Engine.holds db q
      else begin
        let efree, erows = Query.Eval.answers db q in
        let pfree, prows = Planner.Engine.answers db q in
        List.equal String.equal efree pfree
        && List.equal (List.equal Relational.Value.equal) erows prows
      end)

let multi_factorized_matches_product =
  (* two random inconsistent relations; the factorized multi-relation
     ground engine must agree with product enumeration for every family *)
  prop ~count:30 "multi-relation factorized CQA = product enumeration" (fun c ->
      let rng = Workload.Prng.create (c.seed + 31337) in
      let rel_r, fds_r =
        Workload.Generator.random_instance rng ~n:(2 + (c.n / 2)) ~key_values:2
          ~payload_values:2
      in
      let schema_s =
        Relational.Schema.make "S"
          [ ("X", Relational.Schema.TInt); ("Y", Relational.Schema.TInt) ]
      in
      let rel_s =
        Relational.Relation.of_rows schema_s
          (List.init
             (2 + (c.n / 2))
             (fun _ ->
               [
                 Relational.Value.Int (Workload.Prng.int rng 2);
                 Relational.Value.Int (Workload.Prng.int rng 2);
               ]))
      in
      let fds_s = [ Constraints.Fd.make [ "X" ] [ "Y" ] ] in
      let db = Relational.Database.of_relations [ rel_r; rel_s ] in
      let m = Core.Multi.build ~fds:[ ("R", fds_r); ("S", fds_s) ] db in
      let fact rel_name rel =
        let tuples = Relational.Relation.tuple_array rel in
        let t = tuples.(Workload.Prng.int rng (Array.length tuples)) in
        Query.Ast.Atom
          ( rel_name,
            List.map (fun v -> Query.Ast.Const v) (Relational.Tuple.values t) )
      in
      let q =
        Query.Ast.Or
          ( Query.Ast.And (fact "R" rel_r, Query.Ast.Not (fact "S" rel_s)),
            fact "S" rel_s )
      in
      List.for_all
        (fun family ->
          match Core.Multi.certainty_ground family m q with
          | Error _ -> false
          | Ok fast -> fast = Core.Multi.certainty family m q)
        Family.all_names)

let winnow_choose_crosscheck =
  (* the ISSUE's dominator-count-drift check: the incremental winnow
     (Winnow.pick maintains per-vertex dominator counts) must agree with
     the literal Algorithm 1 under ARBITRARY choice functions, not just
     the min_elt default, and its result must pass is_result and appear
     in the memoized all_results enumeration. The choice function is a
     deterministic hash of the winnow set, so both runs see the same
     picks without shared mutable state. *)
  prop ~count:60 "incremental winnow = literal Algorithm 1 under arbitrary choice"
    (fun c ->
      let conflict, p = build_case c in
      let choose s =
        let els = Vset.elements s in
        List.nth els (abs (Vset.hash s + c.seed) mod List.length els)
      in
      let inc = Winnow.clean ~choose conflict p in
      let naive = Winnow.clean_naive ~choose conflict p in
      Vset.equal inc naive
      && Winnow.is_result conflict p inc
      && List.exists (Vset.equal inc) (Winnow.all_results conflict p))

let sharded_certainty_matches_whole =
  (* decomposition equivalence across all families, on a ground query
     and on quantified queries (which take the deviation-scan path) *)
  prop ~count:40 "sharded streaming certainty = whole-graph certainty" (fun c ->
      let conflict, p = build_case c in
      let tuples = Conflict.tuples conflict in
      Array.length tuples = 0
      ||
      let d = Core.Decompose.make conflict p in
      let rng = Workload.Prng.create (c.seed + 271) in
      let rel_name = Relational.Schema.name (Conflict.schema conflict) in
      let fact () =
        let t = tuples.(Workload.Prng.int rng (Array.length tuples)) in
        Query.Ast.Atom
          ( rel_name,
            List.map (fun v -> Query.Ast.Const v) (Relational.Tuple.values t) )
      in
      let lit () =
        if Workload.Prng.bool rng then fact () else Query.Ast.Not (fact ())
      in
      let ground =
        Query.Ast.Or (Query.Ast.And (lit (), lit ()), lit ())
      in
      let arity =
        Relational.Schema.arity (Conflict.schema conflict)
      in
      let vars = List.init arity (Printf.sprintf "x%d") in
      let q_ex =
        Query.Ast.Exists
          (vars, Query.Ast.Atom (rel_name, List.map (fun v -> Query.Ast.Var v) vars))
      in
      List.for_all
        (fun family ->
          List.for_all
            (fun q ->
              Core.Cqa.certainty family conflict p q
              = Core.Decompose.certainty family d q)
            [ ground; q_ex; Query.Ast.Not q_ex ])
        Family.all_names)

let suite =
  [
    planner_matches_evaluator;
    planner_answers_match_evaluator;
    cost_planner_widened_matches_evaluator;
    multi_factorized_matches_product;
    repairs_are_maximal;
    containment_chain;
    p1_nonempty;
    p2_one_step;
    p4_total;
    prop1_confluence;
    prop5_equivalence;
    prop7_c_membership;
    clean_in_c_rep;
    theorem2;
    ground_cqa_agreement;
    one_key_l_equals_s;
    cluster_s_equals_g;
    totalize_preserves_c_result;
    aggregates_within_bounds;
    winnow_choose_crosscheck;
    sharded_certainty_matches_whole;
  ]
