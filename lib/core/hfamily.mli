(** Families of preferred repairs on the hyperedge substrate.

    The Staworko–Chomicki framework (arXiv:0908.0464) orders repairs of
    a denial-constraint instance by how well they respect a priority:
    Rep (all repairs), Pareto-optimal repairs (no Pareto improvement —
    one new fact dominating every fact it displaces) and globally
    optimal repairs (no global improvement — every displaced fact
    answered by {e some} dominating new fact). Pareto improvements are
    global improvements, so Global ⊆ Pareto ⊆ Rep; all three are
    non-empty on every instance. Pareto checking is polynomial; global
    checking is a witness search over the repair space
    (co-NP-complete). The interface mirrors {!Family}. *)

open Relational
open Graphs

type name = Rep | Pareto | Global

val all_names : name list
(** In decreasing size of the selected set: [Rep; Pareto; Global]. *)

val name_to_string : name -> string
val name_of_string : string -> name option

val repairs : name -> Hyper.t -> Hpriority.t -> Vset.t list
(** The preferred repairs, sorted (a filter of {!Hyper.repairs}). *)

val check : name -> Hyper.t -> Hpriority.t -> Vset.t -> bool
(** Membership test. Polynomial for [Rep] and [Pareto]; for [Global] a
    witness search over the repair space. *)

val check_relation : name -> Hyper.t -> Hpriority.t -> Relation.t -> bool

val member : name -> Hyper.t -> Hpriority.t -> Vset.t -> bool
(** Like {!check} for a set already known to be a repair (skips the
    maximality test) — the per-candidate test behind the sharded
    enumeration in {!Hdecompose}. *)

val is_pareto_optimal : Hyper.t -> Hpriority.t -> Vset.t -> bool
val global_improves : Hpriority.t -> over:Vset.t -> Vset.t -> bool

val iter : name -> Hyper.t -> Hpriority.t -> (Vset.t -> unit) -> unit

val pp_name : Format.formatter -> name -> unit
