open Graphs

type name = Rep | Pareto | Global

let all_names = [ Rep; Pareto; Global ]

let name_to_string = function
  | Rep -> "Rep"
  | Pareto -> "Pareto"
  | Global -> "Global"

let name_of_string s =
  match String.lowercase_ascii s with
  | "rep" -> Some Rep
  | "pareto" | "p-rep" | "prep" -> Some Pareto
  | "global" | "g-rep" | "grep" -> Some Global
  | _ -> None

(* [s] has a Pareto improvement iff some live b ∉ s can buy its way in:
   every blocking hyperedge (e ∋ b with e \ {b} ⊆ s) contains a fact
   dominated by b. Then {b} ∪ (s minus the facts b dominates) is
   consistent and a Pareto improvement; conversely any Pareto witness b
   must unblock every blocking edge through a dominated fact. A
   singleton edge {b} blocks with no fact to dominate, so such b never
   witnesses. Polynomial — no repair enumeration. *)
let pareto_improvable h p s =
  Vset.exists
    (fun b ->
      List.for_all
        (fun e ->
          let blockers = Vset.remove b e in
          (not (Vset.subset blockers s))
          || Vset.exists (fun a -> Hpriority.dominates p b a) blockers)
        (Hyper.edges_containing h b))
    (Vset.diff (Hyper.live h) s)

let is_pareto_optimal h p s = not (pareto_improvable h p s)

(* r'' globally improves r: r'' ≠ r and every fact lost from r is
   answered by a gained fact dominating it (arXiv:0908.0464, Def. 4). *)
let global_improves p ~over:r r'' =
  (not (Vset.equal r r''))
  &&
  let gained = Vset.diff r'' r in
  Vset.for_all
    (fun a -> Vset.exists (fun b -> Hpriority.dominates p b a) gained)
    (Vset.diff r r'')

(* If any consistent set globally improves r, so does its maximal
   extension (gained facts only grow, lost facts only shrink), so the
   witness search ranges over repairs only — still the co-NP witness
   search, but on the sharded path it runs per component. *)
let globally_optimal_among all p r =
  not (List.exists (fun r'' -> global_improves p ~over:r r'') all)

let repairs family h p =
  match family with
  | Rep -> Hyper.repairs h
  | Pareto -> List.filter (is_pareto_optimal h p) (Hyper.repairs h)
  | Global ->
    let all = Hyper.repairs h in
    List.filter (globally_optimal_among all p) all

(* Membership of one already-enumerated repair; skips the maximality
   test. Global needs the repair space for its witness search. *)
let member family h p r' =
  match family with
  | Rep -> true
  | Pareto -> is_pareto_optimal h p r'
  | Global -> globally_optimal_among (Hyper.repairs h) p r'

let check family h p candidate =
  Hyper.is_repair h candidate && member family h p candidate

let check_relation family h p r =
  check family h p (Hyper.vset_of_relation h r)

let iter family h p f =
  match family with
  | Rep -> List.iter f (Hyper.repairs h)
  | Pareto -> List.iter f (repairs Pareto h p)
  | Global -> List.iter f (repairs Global h p)

let pp_name ppf n = Format.pp_print_string ppf (name_to_string n)
