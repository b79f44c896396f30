(** Component decomposition of the conflict hypergraph — the {!Sharded}
    engine applied to denial constraints ([Hyper]/[Hpriority]/[Hfamily]);
    {!Decompose} is the same engine over the binary conflict graph.

    Hyperedges connect their vertices, so the hypergraph splits into
    connected components and every preferred-repair family of
    {!Hfamily} factorizes as a cross product of per-component repairs:
    priorities connect only co-edge facts, and Pareto/global
    improvements act within components. Free vertices (covered by no
    edge) are aggregated into one set — they belong to every preferred
    repair — and a vertex carrying a singleton edge forms a one-vertex
    component whose only repair is the empty set. The two instances
    share one implementation, one counters record and one span
    vocabulary ([decompose.*], [cqa.certainty], [cqa.open], with
    [substrate = "hyper"]). *)

open Graphs

type t

type counters = Sharded.counters = {
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable component_repairs : int;
  mutable combos_streamed : int;
  mutable components_examined : int;
  mutable early_exits : int;
  mutable deltas_applied : int;
  mutable edges_added : int;
  mutable edges_removed : int;
  mutable components_dirtied : int;
  mutable cache_evicted : int;
  mutable cache_retained : int;
}

exception Empty_family of Hfamily.name
(** Raised by the streaming paths when a component contributes no
    preferred repair — which non-emptiness of all three families rules
    out; the exception exists for the same defensive reason as
    {!Cqa.Empty_family}. *)

val make : Hyper.t -> Hpriority.t -> t

val hyper : t -> Hyper.t
val priority : t -> Hpriority.t

val components : t -> Vset.t list
(** Logical components in canonical order (increasing smallest vertex),
    free vertices as synthesized singletons — reporting only. *)

val component_of : t -> int -> Vset.t
val component_count : t -> int
(** [List.length (components d)] without synthesizing the free
    singletons (each would be a dense [Vset] sized by its fact id —
    gigabytes on a million-fact instance). *)

val max_component : t -> int

val apply_delta : t -> Hyper.t -> Hpriority.t -> Hyper.delta -> t
(** Carry the decomposition across {!Hyper.apply_delta}: [hyper] and
    [priority] are the updated structures. Only components reached by
    the delta are recomputed; untouched slots keep their cache
    entries. *)

val preferred_within : Hfamily.name -> t -> Vset.t -> Vset.t list
(** The component's preferred repairs (original vertex ids), cached. *)

val count_within : Hfamily.name -> t -> Vset.t -> int
(** Cardinality only; streams without populating the cache on a miss. *)

val warm : Hfamily.name -> t -> unit
(** Fill the cache for every live component — in parallel across pool
    domains when available. *)

val count : Hfamily.name -> t -> int
(** Number of preferred repairs of the whole instance (product of
    per-component counts, saturating at [max_int]). *)

val iter : Hfamily.name -> t -> (Vset.t -> unit) -> unit
(** Stream the full preferred-repair set as the cross product of
    per-component repairs seeded with the free vertices. *)

val member : Hfamily.name -> t -> Vset.t -> bool
val one : Hfamily.name -> t -> Vset.t option

val pp_repairs :
  ?hint:string -> Hfamily.name -> t -> limit:int -> Format.formatter -> unit
(** The family's size and its first [limit] repairs, as
    {!Decompose.pp_repairs}. *)

val certainty_ground :
  Hfamily.name -> t -> Query.Ast.t -> (Cqa.certainty, string) result
(** Polynomial ground certainty through per-component demand checks. *)

val certainty : Hfamily.name -> t -> Query.Ast.t -> Cqa.certainty
(** Ground route when possible, deviation-scan + cross-product streaming
    otherwise. Raises [Invalid_argument] on an open query. *)

type verdict = Sharded.verdict

val explain : Hfamily.name -> t -> Query.Ast.t -> verdict
(** As {!Decompose.explain}. *)

val consistent_answer : Hfamily.name -> t -> Query.Ast.t -> bool

val consistent_answers_open :
  Hfamily.name -> t -> Query.Ast.t -> string list * Relational.Value.t list list
(** Free variables (sorted) and the bindings answering the query in
    every preferred repair, as {!Decompose.consistent_answers_open}. *)

type tuple_status = Sharded.tuple_status

val tuple_status : Hfamily.name -> t -> Relational.Tuple.t -> tuple_status
(** As {!Decompose.tuple_status}; conflicting means sharing a
    hyperedge. *)

type summary = Sharded.summary

val summary : Hfamily.name -> t -> summary
(** As {!Decompose.summary}; the conflict edges are the hyperedges, and
    the priority's open pairs are the co-edge pairs it leaves
    unoriented. *)

type qtrace = Sharded.qtrace

val qtrace : Hfamily.name -> t -> Query.Ast.t -> qtrace
(** As {!Decompose.qtrace}. *)

val certain_tuples : Hfamily.name -> t -> Vset.t
val possible_tuples : Hfamily.name -> t -> Vset.t

val aggregate_range :
  Hfamily.name -> t -> Aggregate.agg -> (Aggregate.range, string) result
(** Aggregate ranges over the preferred repairs, as
    {!Decompose.aggregate_range}. *)

(** {2 Telemetry} *)

val counters : t -> counters
val reset_counters : t -> unit
val reset_cache : t -> unit
val pp_counters : Format.formatter -> counters -> unit
