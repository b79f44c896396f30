(* Whole-graph consistent query answering: the definitions run literally
   over the enumerated preferred-repair family. Each repair is copied into
   a fresh relation ([Repair.to_relation]) on purpose. This module and
   [Multi] are the independent oracle the sharded engine is checked
   against, and the sharded engine evaluates a repair as a masked view of
   the live relation ([Relation.restrict_view]); materializing here keeps
   the whole-graph equivalence suites from comparing masked evaluation
   with itself. *)

open Relational
open Graphs

type certainty = Certainly_true | Certainly_false | Ambiguous

let certainty_to_string = function
  | Certainly_true -> "certainly true"
  | Certainly_false -> "certainly false"
  | Ambiguous -> "ambiguous"

let evaluate_in_repair c r' q =
  Planner.Engine.holds_relation (Repair.to_relation c r') q

exception Empty_family of Family.name

(* Streaming: the repair enumeration stops at the first counterexample
   instead of materializing [Family.repairs] as a full list. The [seen]
   flag distinguishes "all enumerated repairs satisfy Q" from "nothing
   was enumerated at all": the latter violates P1 and must not pass as a
   (vacuously true) consistent answer. [Family.for_all] alone cannot tell
   the two apart. *)
let consistent_answer family c p q =
  let seen = ref false in
  let ok =
    Family.for_all family c p (fun r' ->
        seen := true;
        evaluate_in_repair c r' q)
  in
  if ok && not !seen then raise (Empty_family family);
  ok

exception Mixed

let certainty family c p q =
  Obs.Span.with_span "cqa.enumerate"
    ~args:[ ("family", Obs.Event.Str (Family.name_to_string family)) ]
  @@ fun () ->
  (* One pass: remember the first repair's verdict and bail out the
     moment a repair disagrees with it. *)
  let first = ref None in
  try
    Family.iter family c p (fun r' ->
        let b = evaluate_in_repair c r' q in
        match !first with
        | None -> first := Some b
        | Some b0 -> if b0 <> b then raise Mixed);
    match !first with
    | None -> raise (Empty_family family)
    | Some true -> Certainly_true
    | Some false -> Certainly_false
  with Mixed -> Ambiguous

let consistent_answers_open family c p q =
  match Family.repairs family c p with
  | [] -> raise (Empty_family family)
  | r0 :: rest ->
    let free, first =
      Planner.Engine.answers_relation (Repair.to_relation c r0) q
    in
    (* Intersect per-repair answer sets through a hashtable on the rows
       of the smaller side — keyed on packed rows (int lists), so hashing
       and equality never touch strings; evaluation stops early once the
       running intersection is empty. *)
    let key row = List.map Value.pack row in
    let inter rows r' =
      if rows = [] then []
      else begin
        let _, rows' =
          Planner.Engine.answers_relation (Repair.to_relation c r') q
        in
        let present = Hashtbl.create (List.length rows') in
        List.iter (fun row -> Hashtbl.replace present (key row) ()) rows';
        List.filter (fun row -> Hashtbl.mem present (key row)) rows
      end
    in
    (free, List.fold_left inter first rest)

(* --- the polynomial ground algorithm ----------------------------------- *)

let demand_of_clause c clause =
  Ground.of_clause
    ~rel_name:(Schema.name (Conflict.schema c))
    ~index:(Conflict.index c) clause

(* Is there a repair containing [required] and avoiding [forbidden]?
   Equivalent (by greedy completion within r \ forbidden) to: an
   independent S ⊇ required, S ∩ forbidden = ∅, where every forbidden
   vertex has a neighbour in S. Blockers are chosen per forbidden vertex
   with backtracking. *)
let demand_satisfiable c { Ground.required; forbidden } =
  let g = Conflict.graph c in
  if not (Vset.disjoint required forbidden) then false
  else if not (Undirected.is_independent g required) then false
  else begin
    let needs_blocker =
      Vset.filter
        (fun b -> Vset.disjoint (Undirected.neighbors g b) required)
        forbidden
    in
    (* A fresh blocker must keep S = required ∪ chosen independent and
       stay clear of the forbidden set. Vertices already in [chosen] are
       handled by the "already blocked" pre-check below. *)
    let compatible chosen v =
      (not (Vset.mem v forbidden))
      && (not (Vset.mem v chosen))
      && Vset.disjoint (Undirected.neighbors g v) required
      && Vset.disjoint (Undirected.neighbors g v) chosen
    in
    let rec assign chosen = function
      | [] -> true
      | b :: rest ->
        (* b may already be blocked by a previously chosen blocker. *)
        if not (Vset.disjoint (Undirected.neighbors g b) chosen) then
          assign chosen rest
        else
          Vset.exists
            (fun v -> compatible chosen v && assign (Vset.add v chosen) rest)
            (Undirected.neighbors g b)
    in
    assign Vset.empty (Vset.elements needs_blocker)
  end

let some_repair_satisfies c q =
  match Query.Transform.ground_dnf q with
  | Error e -> Error e
  | Ok clauses ->
    let clause_ok clause =
      match demand_of_clause c clause with
      | Error e -> Error e
      | Ok None -> Ok false
      | Ok (Some d) -> Ok (demand_satisfiable c d)
    in
    List.fold_left
      (fun acc clause ->
        match acc with
        | Error _ | Ok true -> acc
        | Ok false -> clause_ok clause)
      (Ok false) clauses

let ground_certainty c q =
  if not (Query.Ast.is_ground q) then
    Error "ground_certainty: query is not ground"
  else
    Obs.Span.with_span "cqa.ground" @@ fun () ->
    match some_repair_satisfies c (Query.Ast.Not q) with
    | Error e -> Error e
    | Ok false -> Ok Certainly_true
    | Ok true -> (
      match some_repair_satisfies c q with
      | Error e -> Error e
      | Ok false -> Ok Certainly_false
      | Ok true -> Ok Ambiguous)

let ground_consistent_answer c q =
  match ground_certainty c q with
  | Error e -> Error e
  | Ok cert -> Ok (cert = Certainly_true)
