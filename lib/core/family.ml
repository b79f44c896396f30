open Graphs

type name = Rep | L | S | G | C

let all_names = [ Rep; L; S; G; C ]

let name_to_string = function
  | Rep -> "Rep"
  | L -> "L-Rep"
  | S -> "S-Rep"
  | G -> "G-Rep"
  | C -> "C-Rep"

let name_of_string s =
  match String.lowercase_ascii s with
  | "rep" -> Some Rep
  | "l" | "l-rep" | "lrep" -> Some L
  | "s" | "s-rep" | "srep" | "pareto" -> Some S
  | "g" | "g-rep" | "grep" | "global" -> Some G
  | "c" | "c-rep" | "crep" -> Some C
  | _ -> None

(* G-Rep = ≪-maximal repairs; filtering the full enumeration beats a
   per-candidate witness search because the repair list is shared. *)
let globally_optimal_among all c p =
  List.filter
    (fun r' ->
      not
        (List.exists
           (fun r'' ->
             (not (Vset.equal r' r'')) && Optimality.preferred_to c p r' r'')
           all))
    all

let repairs family c p =
  match family with
  | Rep -> Repair.all c
  | L -> List.filter (Optimality.is_locally_optimal c p) (Repair.all c)
  | S -> List.filter (Optimality.is_semi_globally_optimal c p) (Repair.all c)
  | G -> globally_optimal_among (Repair.all c) c p
  | C -> Winnow.all_results c p

let check family c p candidate =
  Repair.is_repair c candidate
  &&
  match family with
  | Rep -> true
  | L -> Optimality.is_locally_optimal c p candidate
  | S -> Optimality.is_semi_globally_optimal c p candidate
  | G -> Optimality.is_globally_optimal c p candidate
  | C -> Winnow.is_result c p candidate

let check_relation family c p r =
  check family c p (Conflict.vset_of_relation c r)

(* --- streaming enumeration ---------------------------------------------- *)

(* Membership in the family of one already-enumerated repair. Unlike
   [check] this skips the maximality test (the enumerator only yields
   repairs), and for C it uses the PTIME re-run of Algorithm 1 instead of
   materializing the exponential [Winnow.all_results]. *)
let member family c p r' =
  match family with
  | Rep -> true
  | L -> Optimality.is_locally_optimal c p r'
  | S -> Optimality.is_semi_globally_optimal c p r'
  | G -> Optimality.is_globally_optimal c p r'
  | C -> Winnow.is_result c p r'

let iter family c p f =
  Repair.iter (fun r' -> if member family c p r' then f r') c

let exists family c p pred =
  Repair.exists (fun r' -> pred r' && member family c p r') c

let for_all family c p pred =
  not (exists family c p (fun r' -> not (pred r')))

let one family c p =
  match family with
  | Rep -> Some (Repair.one c)
  | C -> Some (Winnow.clean c p)
  | L | S | G -> (
    let found = ref None in
    (try
       iter family c p (fun r' ->
           found := Some r';
           raise Exit)
     with Exit -> ());
    !found)

let pp_name ppf n = Format.pp_print_string ppf (name_to_string n)
