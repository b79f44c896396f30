(** The families of preferred repairs studied in the paper, under one
    interface: Rep (no preferences), L-Rep, S-Rep, G-Rep and C-Rep.

    For each family [X] the module exposes the paper's two decision
    problems (§4.1): [repairs] materializes X-Rep≻F(r), and [check] is
    X-repair checking, the membership test B^X_F. Repair checking is
    polynomial for Rep, L, S and C and co-NP-complete for G (Figure 5). *)

open Relational
open Graphs

type name = Rep | L | S | G | C

val all_names : name list
(** In decreasing size of the selected set: [Rep; L; S; G; C]
    (C ⊆ G ⊆ S ⊆ L ⊆ Rep). *)

val name_to_string : name -> string
val name_of_string : string -> name option
(** Also accepts [pareto] for [S] and [global] for [G]: on binary
    conflicts Pareto- and globally-optimal repairs (arXiv:0908.0464)
    are exactly S- and G-Rep, so the two families share one name
    space. *)

val repairs : name -> Conflict.t -> Priority.t -> Vset.t list
(** The preferred repairs X-Rep≻F(r), sorted. Enumerative: exponential in
    the number of conflicts, like the repair space. *)

val check : name -> Conflict.t -> Priority.t -> Vset.t -> bool
(** X-repair checking. Polynomial for [Rep], [L], [S], [C]; for [G] a
    witness search over the repair space (co-NP-complete problem). *)

val check_relation : name -> Conflict.t -> Priority.t -> Relation.t -> bool

val iter : name -> Conflict.t -> Priority.t -> (Vset.t -> unit) -> unit
(** Streams the family's preferred repairs without materializing the
    list: the repair enumerator feeds a per-candidate membership test
    (for C the PTIME re-run of Algorithm 1, avoiding the exponential
    memoized enumeration). Order unspecified.

    Cost is exponential in the {e total} number of conflicts, because
    the enumerator walks the whole conflict graph's repair space. When
    the conflict graph splits into components, the [Decompose]-backed
    streaming variants ([Decompose.iter] and friends) enumerate the same
    family as a cross product of per-component preferred repairs —
    exponential only in the largest component — and should be preferred
    for anything beyond one-component instances. *)

val exists : name -> Conflict.t -> Priority.t -> (Vset.t -> bool) -> bool
(** [exists family c p pred]: does some preferred repair satisfy [pred]?
    Stops the enumeration at the first witness. *)

val for_all : name -> Conflict.t -> Priority.t -> (Vset.t -> bool) -> bool
(** Stops at the first counterexample repair. Vacuously [true] when the
    enumeration yields no repair at all — a situation P1 rules out for
    every family of the paper, so callers that must distinguish "all
    repairs satisfy" from "no repairs at all" (notably [Cqa], which
    raises [Cqa.Empty_family] rather than report a vacuous certainty)
    have to track emptiness themselves. *)

val one : name -> Conflict.t -> Priority.t -> Vset.t option
(** Some preferred repair of the family, if any. For [C] this is a single
    deterministic run of Algorithm 1 (always succeeds); for the other
    families it searches the repair space. [Rep], [L], [S], [C] are never
    empty (P1); for [G] non-emptiness follows from C ⊆ G and P1 for C. *)

val pp_name : Format.formatter -> name -> unit
