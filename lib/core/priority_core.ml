(* What [Priority] and [Hpriority] share: a priority is an acyclic
   digraph whose arcs join conflicting facts, whatever the conflict
   structure underneath. [Make] needs only the structure's vertex count,
   its "do these two conflict" test and its list of conflicting pairs. *)

open Graphs

type error = Not_conflicting of int * int | Cyclic

let error_to_string = function
  | Not_conflicting (u, v) ->
    Printf.sprintf
      "priority arc %d > %d does not connect conflicting tuples" u v
  | Cyclic -> "priority relation is cyclic"

module Make (C : sig
  type t

  val size : t -> int
  val conflicting : t -> int -> int -> bool

  val pairs : t -> (int * int) list
  (** the conflicting pairs, as [(u, v)] with u < v *)

  val index_exn : t -> Relational.Tuple.t -> int
end) =
struct
  type t = Digraph.t

  type nonrec error = error = Not_conflicting of int * int | Cyclic

  let error_to_string = error_to_string
  let empty c = Digraph.create (C.size c) []

  let validate c g =
    let bad =
      List.find_opt (fun (u, v) -> not (C.conflicting c u v)) (Digraph.arcs g)
    in
    match bad with
    | Some (u, v) -> Error (Not_conflicting (u, v))
    | None -> if Digraph.has_cycle g then Error Cyclic else Ok g

  let of_arcs c arcs = validate c (Digraph.create (C.size c) arcs)

  let of_arcs_exn c arcs =
    match of_arcs c arcs with
    | Ok p -> p
    | Error e -> invalid_arg (error_to_string e)

  let of_tuple_pairs c pairs =
    of_arcs c
      (List.map (fun (x, y) -> (C.index_exn c x, C.index_exn c y)) pairs)

  let arcs = Digraph.arcs
  let arc_count = Digraph.arc_count
  let dominates p x y = Digraph.mem_arc p x y
  let dominators p y = Digraph.pred p y
  let dominated p x = Digraph.succ p x
  let oriented p u v = dominates p u v || dominates p v u

  let unoriented c p =
    List.filter (fun (u, v) -> not (oriented p u v)) (C.pairs c)

  let is_total c p = unoriented c p = []
  let extend c p new_arcs = of_arcs c (new_arcs @ Digraph.arcs p)

  let totalize c p =
    let order =
      match Digraph.topological_order p with
      | Some order -> order
      | None -> assert false (* valid priorities are acyclic *)
    in
    let rank = Array.make (C.size c) 0 in
    List.iteri (fun i v -> rank.(v) <- i) order;
    let new_arcs =
      List.map
        (fun (u, v) -> if rank.(u) < rank.(v) then (u, v) else (v, u))
        (unoriented c p)
    in
    match extend c p new_arcs with
    | Ok p' -> p'
    | Error _ -> assert false (* arcs follow a linear order: acyclic *)

  let winnow p s =
    Vset.filter (fun v -> Vset.is_empty (Vset.inter (dominators p v) s)) s

  let restrict p s = Digraph.restrict p s

  let pp ppf p =
    Format.fprintf ppf "@[{%a}@]"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         (fun ppf (u, v) -> Format.fprintf ppf "t%d > t%d" u v))
      (Digraph.arcs p)
end
