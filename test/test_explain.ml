(* Tests for answer explanations: the witnesses and tuple fates that the
   sharded engine ([Decompose.explain]/[tuple_status] and their
   [Hdecompose] twins) reads off the routes that decide certainty,
   checked against enumeration of the preferred-repair families. *)

open Relational
open Graphs
module Decompose = Core.Decompose
module Hdecompose = Core.Hdecompose
module Family = Core.Family
module Hfamily = Core.Hfamily
module Cqa = Core.Cqa
module Conflict = Core.Conflict
module Hyper = Core.Hyper
module Prng = Workload.Prng

let check = Alcotest.check
let parse = Query.Parser.parse_exn

let certainty =
  Alcotest.testable
    (fun ppf x -> Format.pp_print_string ppf (Cqa.certainty_to_string x))
    ( = )

let mgr_with_priority () =
  let rel, fds, prov = Testlib.mgr () in
  let c = Conflict.build fds rel in
  let rule =
    Result.get_ok
      (Core.Pref_rules.source_reliability prov
         ~more_reliable_than:[ ("s1", "s3"); ("s2", "s3") ])
  in
  let p = Core.Pref_rules.apply_exn c rule in
  (c, p, Decompose.make c p)

let mgr_tuple name dept salary reports =
  Tuple.make [ Value.name name; Value.name dept; Value.int salary; Value.int reports ]

let test_query_witnesses () =
  let _, _, d = mgr_with_priority () in
  (* Mary-IT is ambiguous under C: one witness each way *)
  let v = Decompose.explain Family.C d (parse "Mgr('Mary', 'IT', 20000, 1)") in
  check certainty "ambiguous" Cqa.Ambiguous v.certainty;
  Alcotest.(check bool) "has supporting witness" true (v.supporting <> None);
  Alcotest.(check bool) "has refuting witness" true (v.refuting <> None);
  (* a certainly-true query has no refuting witness *)
  let v2 =
    Decompose.explain Family.C d
      (parse "Mgr('Mary', 'R&D', 40000, 3) or Mgr('John', 'R&D', 10000, 2)")
  in
  check certainty "certain" Cqa.Certainly_true v2.certainty;
  Alcotest.(check bool) "supporter" true (v2.supporting <> None);
  Alcotest.(check bool) "no refuter" true (v2.refuting = None)

let test_witnesses_are_preferred_repairs () =
  let c, p, d = mgr_with_priority () in
  List.iter
    (fun qs ->
      let q = parse qs in
      let v = Decompose.explain Family.G d q in
      let witness side holds = function
        | None -> ()
        | Some s ->
          Alcotest.(check bool) (qs ^ ": " ^ side ^ " is preferred") true
            (Family.check Family.G c p s);
          Alcotest.(check bool) (qs ^ ": " ^ side ^ " decides Q") holds
            (Cqa.evaluate_in_repair c s q)
      in
      witness "supporting" true v.supporting;
      witness "refuting" false v.refuting)
    [
      "Mgr('John', 'PR', 30000, 4)";
      "exists d, s, r. Mgr('John', d, s, r) and s > 20000";
    ]

let test_verdict_matches_certainty () =
  let c, p, d = mgr_with_priority () in
  List.iter
    (fun qs ->
      let q = parse qs in
      List.iter
        (fun family ->
          check certainty
            (qs ^ " / " ^ Family.name_to_string family)
            (Cqa.certainty family c p q)
            (Decompose.explain family d q).certainty)
        Family.all_names)
    [
      "Mgr('Mary', 'IT', 20000, 1)";
      "exists d, s, r. Mgr('Mary', d, s, r)";
      "false";
    ]

let test_tuple_status () =
  let _, _, d = mgr_with_priority () in
  (* Mary-R&D: conflicts with John-R&D and Mary-IT, dominates Mary-IT *)
  let st = Decompose.tuple_status Family.C d (mgr_tuple "Mary" "R&D" 40000 3) in
  check Alcotest.int "two conflicts" 2 (List.length st.conflicts_with);
  check Alcotest.int "dominates one" 1 (List.length st.dominates);
  check Alcotest.int "dominated by none" 0 (List.length st.dominated_by);
  Alcotest.(check bool) "disputed" true (st.in_some && not st.in_all);
  (* Mary-IT is dominated but still appears in r2 *)
  let st2 = Decompose.tuple_status Family.C d (mgr_tuple "Mary" "IT" 20000 1) in
  check Alcotest.int "dominated by Mary-R&D" 1 (List.length st2.dominated_by);
  Alcotest.(check bool) "still in some" true st2.in_some;
  Alcotest.check_raises "unknown tuple raises"
    (Invalid_argument "tuple ('Zoe', 'HR', 1, 1) is not part of the instance")
    (fun () -> ignore (Decompose.tuple_status Family.C d (mgr_tuple "Zoe" "HR" 1 1)))

let test_tuple_status_consistent_tuple () =
  (* a conflict-free tuple is in every repair *)
  let schema = Schema.make "R" [ ("A", Schema.TInt); ("B", Schema.TInt) ] in
  let rel =
    Relation.of_rows schema
      [ [ Value.int 1; Value.int 1 ]; [ Value.int 2; Value.int 1 ];
        [ Value.int 2; Value.int 2 ] ]
  in
  let c = Conflict.build [ Constraints.Fd.make [ "A" ] [ "B" ] ] rel in
  let d = Decompose.make c (Core.Priority.empty c) in
  let st =
    Decompose.tuple_status Family.Rep d (Tuple.make [ Value.int 1; Value.int 1 ])
  in
  Alcotest.(check bool) "in all" true st.in_all;
  check Alcotest.int "no conflicts" 0 (List.length st.conflicts_with)

(* The printers live in the session, which renders both substrates. *)
let test_pp_smoke () =
  let rel, fds, prov = Testlib.mgr () in
  let spec =
    {
      Dbio.Instance_format.relation = rel;
      fds;
      denials = [];
      provenance = prov;
      prefs =
        [
          Dbio.Instance_format.Source_pair ("s1", "s3");
          Dbio.Instance_format.Source_pair ("s2", "s3");
        ];
    }
  in
  let st = Shell.Session.of_spec spec in
  let _, out = Shell.Session.exec st "explain Mgr('Mary', 'IT', 20000, 1)" in
  Alcotest.(check bool) "mentions ambiguity and both witnesses" true
    (Testlib.contains ~needle:"ambiguous" out
    && Testlib.contains ~needle:"holds in:  {" out
    && Testlib.contains ~needle:"fails in:  {" out);
  let _, out = Shell.Session.exec st "status 'Mary' 'IT' 20000 1" in
  Alcotest.(check bool) "status renders" true
    (Testlib.contains ~needle:"dominated by:   ('Mary', 'R&D', 40000, 3)" out);
  let _, out = Shell.Session.exec st "status 'Zoe' 'HR' 1 1" in
  check Alcotest.string "unknown tuple"
    "error: tuple ('Zoe', 'HR', 1, 1) is not part of the instance" out

(* --- explain and tuple_status = enumeration, on both substrates ---------- *)

type case = { seed : int; n : int; shape : int; steps : int }

let case_gen =
  QCheck2.Gen.(
    let* seed = int_bound 1_000_000 in
    let* n = int_range 1 8 in
    let* shape = int_bound 1 in
    let* steps = int_bound 3 in
    return { seed; n; shape; steps })

let case_print c =
  Printf.sprintf "{seed=%d; n=%d; shape=%d; steps=%d}" c.seed c.n c.shape c.steps

let prop name f =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count:40 ~print:case_print case_gen f)

(* A random FD instance: one key (shape 0) or two FDs. *)
let fd_instance rng c =
  if c.shape = 0 then
    Workload.Generator.random_instance rng ~n:c.n ~key_values:3 ~payload_values:2
  else
    Workload.Generator.random_two_fd_instance rng ~n:c.n ~a_values:3 ~c_values:3
      ~v_values:2

(* A random denial instance: a 1-ary cap and 2-ary denials. *)
let denial_instance rng n =
  Workload.Generator.random_denial_instance rng ~n ~a_values:3 ~payload_values:3
    ~cap_chance:0.15 ~skew:false

(* A random total order on tuple values, so priorities stay acyclic
   under any insertion. *)
let rank c t = Hashtbl.hash (c.seed, Tuple.to_string t)

(* Apply [c.steps] random batches (an insert of a [fresh] random row
   and/or a delete of a live one) or undos through the engine. *)
let drive rng c ~fresh ~relation ~apply ~undo =
  for _ = 1 to c.steps do
    if Prng.int rng 3 = 0 then ignore (undo ())
    else begin
      let rel = relation () in
      let ops = List.map (fun t -> Core.Delta.Insert t) (Relation.tuples (fresh ())) in
      let ops =
        match Relation.tuples rel with
        | [] -> ops
        | ts when Prng.bool rng ->
          Core.Delta.Delete (List.nth ts (Prng.int rng (List.length ts))) :: ops
        | _ -> ops
      in
      ignore (apply ops)
    end
  done

(* Ground and quantified closed queries over the live tuples: a random
   positive/negative boolean combination of facts, and an existential
   pinning the first column of a live tuple, with its negation. *)
let queries rng rel =
  let name = Schema.name (Relation.schema rel) in
  let live = Array.of_list (Relation.tuples rel) in
  if Array.length live = 0 then []
  else begin
    let pick () = live.(Prng.int rng (Array.length live)) in
    let fact () =
      Query.Ast.Atom
        (name, List.map (fun v -> Query.Ast.Const v) (Tuple.values (pick ())))
    in
    let lit () = if Prng.bool rng then fact () else Query.Ast.Not (fact ()) in
    let arity = Schema.arity (Relation.schema rel) in
    let vars = List.init (arity - 1) (fun i -> Printf.sprintf "x%d" (i + 1)) in
    let ex =
      Query.Ast.Exists
        ( vars,
          Query.Ast.Atom
            ( name,
              Query.Ast.Const (Tuple.get (pick ()) 0)
              :: List.map (fun v -> Query.Ast.Var v) vars ) )
    in
    [ Query.Ast.Or (Query.Ast.And (lit (), lit ()), lit ()); ex; Query.Ast.Not ex ]
  end

(* The four checks, given the enumerated family [repairs] and its
   membership test [member]: the verdict is enumeration's, every
   witness is a member deciding Q its way, a witness exists exactly for
   each truth value some repair gives Q, and each live tuple's fate is
   its membership across [repairs]. *)
let agrees ~repairs ~member ~holds ~explain ~status ~index ~live q =
  let truths = List.map (fun r -> holds r q) repairs in
  let expected =
    if List.for_all Fun.id truths then Cqa.Certainly_true
    else if List.for_all not truths then Cqa.Certainly_false
    else Cqa.Ambiguous
  in
  let (v : Core.Sharded.verdict) = explain q in
  let witness truth = function
    | None -> not (List.mem truth truths)
    | Some w -> member w && holds w q = truth
  in
  v.certainty = expected
  && witness true v.supporting
  && witness false v.refuting
  && List.for_all
       (fun t ->
         let (st : Core.Sharded.tuple_status) = status t in
         let id = index t in
         st.in_all = List.for_all (Vset.mem id) repairs
         && st.in_some = List.exists (Vset.mem id) repairs)
       live

let fd_explain_matches_enumeration =
  prop "explain/tuple_status = enumeration (FD graph, after deltas)" (fun c ->
      let rng = Prng.create c.seed in
      let rel, fds = fd_instance rng c in
      let rule = Core.Pref_rules.by_score (rank c) in
      let eng = Result.get_ok (Core.Delta.create ~rule fds rel) in
      drive rng c
        ~fresh:(fun () -> fst (fd_instance rng { c with n = 1 }))
        ~relation:(fun () -> Core.Delta.relation eng)
        ~apply:(Core.Delta.apply eng)
        ~undo:(fun () -> Core.Delta.undo eng);
      let cg = Core.Delta.conflict eng and p = Core.Delta.priority eng in
      let d = Core.Delta.decompose eng in
      let rel = Core.Delta.relation eng in
      let qs = queries rng rel in
      List.for_all
        (fun fam ->
          let repairs = Family.repairs fam cg p in
          List.for_all
            (agrees ~repairs ~member:(Family.check fam cg p)
               ~holds:(Cqa.evaluate_in_repair cg) ~explain:(Decompose.explain fam d)
               ~status:(Decompose.tuple_status fam d) ~index:(Conflict.index_exn cg)
               ~live:(Relation.tuples rel))
            qs
          && List.for_all
               (fun q -> (Decompose.explain fam d q).certainty = Cqa.certainty fam cg p q)
               qs)
        Family.all_names)

let denial_explain_matches_enumeration =
  prop "explain/tuple_status = enumeration (hypergraph, after deltas)" (fun c ->
      let rng = Prng.create c.seed in
      let rel, denials = denial_instance rng c.n in
      let arcs =
        let h = Hyper.build denials rel in
        List.map
          (fun (u, v) ->
            if rank c (Hyper.tuple h u) > rank c (Hyper.tuple h v) then (u, v) else (v, u))
          (Core.Hpriority.conflicting_pairs h)
      in
      let eng = Result.get_ok (Core.Hdelta.create ~arcs denials rel) in
      drive rng c
        ~fresh:(fun () -> fst (denial_instance rng 1))
        ~relation:(fun () -> Core.Hdelta.relation eng)
        ~apply:(Core.Hdelta.apply eng)
        ~undo:(fun () -> Core.Hdelta.undo eng);
      let h = Core.Hdelta.hyper eng and p = Core.Hdelta.priority eng in
      let d = Core.Hdelta.decompose eng in
      let rel = Core.Hdelta.relation eng in
      let holds r q = Query.Eval.holds_relation (Hyper.to_relation h r) q in
      let qs = queries rng rel in
      List.for_all
        (fun fam ->
          List.for_all
            (agrees ~repairs:(Hfamily.repairs fam h p) ~member:(Hfamily.check fam h p)
               ~holds ~explain:(Hdecompose.explain fam d)
               ~status:(Hdecompose.tuple_status fam d) ~index:(Hyper.index_exn h)
               ~live:(Relation.tuples rel))
            qs)
        Hfamily.all_names)

let suite =
  [
    ("query witnesses", `Quick, test_query_witnesses);
    ("witnesses are preferred repairs", `Quick, test_witnesses_are_preferred_repairs);
    ("verdict matches certainty", `Quick, test_verdict_matches_certainty);
    ("tuple status on the Mgr instance", `Quick, test_tuple_status);
    ("conflict-free tuples are certain", `Quick, test_tuple_status_consistent_tuple);
    ("printers render", `Quick, test_pp_smoke);
    fd_explain_matches_enumeration;
    denial_explain_matches_enumeration;
  ]
