(** Component-wise evaluation of preferred repairs.

    Conflicts never leave a connected component of the conflict graph, and
    every one of the paper's families factorizes over components:

    - repairs of r = unions of one repair per component;
    - an L/S-improving witness y acts inside y's component;
    - ≪-domination pairs each lost tuple with a dominator it conflicts
      with, hence in the same component, so global optimality is
      equivalent to component-wise global optimality;
    - Algorithm 1's winnow is component-local and runs on different
      components interleave freely (Prop. 7 per component).

    The global repair space is the product of the component spaces — often
    astronomically large while every component stays small. This module
    exploits that: counting preferred repairs, deciding ground-query
    certainty and computing aggregate ranges all become tractable whenever
    components are small, even for the families whose global problems are
    co-NP- or Π₂ᵖ-complete (the hardness constructions need components
    that grow with the instance).

    Correctness of the factorization is cross-validated against the
    monolithic engines in the test suite.

    This module is the {!Sharded} engine applied to the binary conflict
    graph ([Conflict]/[Priority]/[Family]); {!Hdecompose} is the same
    engine over the conflict hypergraph of denial constraints. *)

open Graphs

type t

type counters = Sharded.counters = {
  mutable cache_hits : int;
      (** [preferred_within] served from the component cache *)
  mutable cache_misses : int;
      (** component repair lists actually computed *)
  mutable component_repairs : int;
      (** repairs materialized by cache misses, summed over components *)
  mutable combos_streamed : int;
      (** cross-product combinations handed to a consumer ([iter],
          [certainty], ...) *)
  mutable components_examined : int;
      (** per-component checks performed (clause demands, deviation
          scans) *)
  mutable early_exits : int;
      (** evaluations cut short before exhausting their search space *)
  mutable deltas_applied : int;
      (** incremental updates folded in through {!apply_delta} *)
  mutable edges_added : int;
      (** conflict edges created by those deltas *)
  mutable edges_removed : int;
      (** conflict edges destroyed by those deltas *)
  mutable components_dirtied : int;
      (** components invalidated (recomputed) by deltas *)
  mutable cache_evicted : int;
      (** [(family, component)] cache entries dropped by deltas *)
  mutable cache_retained : int;
      (** cache entries of untouched components carried across deltas *)
}
(** Observability counters, accumulated across every query answered
    through one [t]. The fields are mutable only so the implementation
    can bump them in place; treat values returned by {!counters} as a
    snapshot. *)

val make : Conflict.t -> Priority.t -> t
(** Precomputes the components. O(V + E). Conflict-free vertices are not
    given singleton components of their own: they are aggregated into one
    internal {e free set} (a tuple with no conflicts belongs to every
    repair), which keeps decomposition linear even when almost all of a
    huge instance is clean. *)

val conflict : t -> Conflict.t
val priority : t -> Priority.t

val components : t -> Vset.t list
(** The logical components, including one synthesized singleton per
    conflict-free vertex — the historical reporting shape. Evaluation
    paths ([count], [certainty], [iter], ...) never materialize the
    singletons; prefer them on large instances. *)

val component_count : t -> int
(** [List.length (components d)] without synthesizing the free
    singletons (each would be a dense [Vset] sized by its fact id —
    gigabytes on a million-fact instance). *)

val max_component : t -> int
(** Size of the largest connected component — the parameter every
    exponential bound below is measured in. 0 iff there are no
    conflicts. *)

val counters : t -> counters
(** A snapshot of the counters accumulated so far (callers can diff two
    snapshots around a query). *)

val reset_counters : t -> unit
(** Zeroes the live counters. The repair cache itself is kept, so a
    query replayed after a reset reports pure cache hits. *)

val reset_cache : t -> unit
(** Drops every cached [(family, component)] repair list, so the next
    query pays the component solves again. Counters are kept. Meant for
    measurement harnesses that re-run cold evaluations on one
    decomposition. *)

val warm : Family.name -> t -> unit
(** Fills the [(family, component)] cache for every component that is
    not already cached. Counter-equivalent to a sequential
    [preferred_within] sweep: one [cache_hits] per already-cached
    component, one [cache_misses] (plus its [component_repairs]) per
    filled one. When {!Pool.jobs}[ () > 1], the misses are solved on the
    domain pool — components are mutually independent — with per-lane
    counter shards merged after the join and all cache writes published
    by the calling domain in slot order, so the merged counters and the
    cache contents are identical to the sequential fill. [count],
    [certainty] and the streaming consumers call this implicitly; call
    it directly to front-load the solves. *)

val pp_counters : Format.formatter -> counters -> unit

val component_of : t -> int -> Vset.t
(** The component containing the given vertex. Raises [Invalid_argument]
    on tombstoned (deleted) vertices. *)

val apply_delta : t -> Conflict.t -> Priority.t -> Conflict.delta -> t
(** [apply_delta d c' p' delta] carries the decomposition across an
    incremental update: [c'], [p'] and [delta] must come from
    {!Conflict.apply_delta} (and {!Priority.update}) on [d]'s conflict.
    Only components actually reached by the delta — those containing a
    deleted vertex or an endpoint of an added/removed edge, plus the
    inserted vertices — are re-decomposed. Component slots are stable:
    an untouched component is provably unchanged and keeps its slot, its
    vertex-index entries and its cached [(family, component)] repair
    lists verbatim; only the dirtied slots' cache entries are evicted.
    The returned value shares [d]'s counters record, so {!counters}
    reports telemetry accumulated over the whole update history
    ([deltas_applied], [components_dirtied], [cache_evicted],
    [cache_retained], ...). O(touched components + V) per call, never
    proportional to the number of untouched components' repairs. *)

val preferred_within :
  Family.name -> t -> Vset.t -> Vset.t list
(** The family's preferred repairs of one component, as subsets of the
    original vertex ids. Cost is exponential only in the component size. *)

val count_within : Family.name -> t -> Vset.t -> int
(** Number of preferred repairs of one component. Served from the cache
    when the component's repair list is already materialized; otherwise
    streams the family over the component's sub-instance and counts,
    without building the list or populating the cache — counting a huge
    component never allocates its repairs. *)

val count : Family.name -> t -> int
(** Number of preferred repairs of the whole instance — the product of
    the per-component counts. Never materializes the product. The true
    count can exceed [max_int] (Example 4 at n ≥ 62); the product
    saturates at [max_int] instead of wrapping. *)

val certainty_ground :
  Family.name -> t -> Query.Ast.t -> (Cqa.certainty, string) result
(** Certainty of a ground query w.r.t. the family's preferred repairs,
    decided component-wise: a DNF clause is satisfiable by a preferred
    repair iff its per-component demands are each satisfiable by a
    preferred repair of that component (untouched components are free by
    P1). Exponential only in the largest component touched by the
    query. *)

(** {2 Streaming the family through the component decomposition}

    Sharded counterparts of [Family.iter/member/one] and
    [Cqa.certainty/consistent_answer/consistent_answers_open]. They
    enumerate the global family as the cross product of per-component
    preferred repairs (cached per [(family, component)]), so the
    per-component work is exponential only in the largest component —
    the whole-graph paths in [Family]/[Cqa] pay exponential cost in the
    {e total} number of conflicts for the same answers. Enumeration
    order is unspecified and differs from [Family.iter]. *)

val iter : Family.name -> t -> (Vset.t -> unit) -> unit
(** Streams every preferred repair of the whole instance without
    materializing the product. Raises [Cqa.Empty_family] if some
    component contributes no preferred repair (a P1 violation — see
    [Cqa]); with no conflicts at all, yields the single repair [∅]. *)

val member : Family.name -> t -> Vset.t -> bool
(** Membership in the global family, decided component-wise: [r] is a
    preferred repair iff its restriction to each component is a
    preferred repair of that component. Exponential only in the largest
    component, even for G (whose whole-graph [Family.check] searches
    the global repair space). *)

val one : Family.name -> t -> Vset.t option
(** Some preferred repair — the union of one preferred repair per
    component. [None] only on a P1 violation. *)

val pp_repairs :
  ?hint:string -> Family.name -> t -> limit:int -> Format.formatter -> unit
(** Prints the family's size ({!count}) and its first [limit] repairs
    in {!iter} order, stopping the stream after [limit] — so listing a
    few repairs of an exponential family costs [limit] combinations,
    not the family. A final ["... (N more<hint>)"] line reports the
    rest. *)

val certainty : Family.name -> t -> Query.Ast.t -> Cqa.certainty
(** Certainty of a closed query. Ground quantifier-free queries route
    through {!certainty_ground} (exponential only in the largest
    component {e touched by the query}). Quantified queries get a
    two-pass evaluation: a deviation scan over all repairs at component
    Hamming distance ≤ 1 from a baseline settles [Ambiguous] verdicts
    after only sum-per-component many evaluations, and only a certain
    verdict (with ≥ 2 multi-repair components) falls back to the full
    cross product. That fallback is unavoidable: certainty of
    quantified queries is co-NP-hard already for instances whose
    components all have ≤ 2 tuples, so no algorithm can be exponential
    in the largest component alone. Raises [Cqa.Empty_family] on a P1
    violation and [Invalid_argument] on open queries. *)

type verdict = Sharded.verdict

val explain : Family.name -> t -> Query.Ast.t -> verdict
(** {!certainty} with the witnesses its route held when it decided,
    completed to preferred repairs with the free tuples and the first
    cached repair of every other component (the choice {!one} makes).
    [Ambiguous] carries both witnesses, a certain verdict the one of its
    own truth value. No search beyond {!certainty}'s. *)

val consistent_answer : Family.name -> t -> Query.Ast.t -> bool
(** [certainty = Certainly_true], with the ground route short-cut to a
    single ¬Q satisfiability check. *)

val consistent_answers_open :
  Family.name -> t -> Query.Ast.t -> string list * Relational.Value.t list list
(** Free variables (sorted) and the bindings answering the query in
    every preferred repair, intersected streamingly over {!iter} with an
    early exit once the running intersection empties. Raises
    [Cqa.Empty_family] on a P1 violation. *)

val certain_tuples : Family.name -> t -> Vset.t
(** Tuples belonging to {e every} preferred repair — the certain answers
    to the identity query, computed per component. A conflict-free tuple
    is always certain. *)

val possible_tuples : Family.name -> t -> Vset.t
(** Tuples belonging to at least one preferred repair. The complement
    consists of tuples the preferences rule out entirely. *)

type tuple_status = Sharded.tuple_status

val tuple_status : Family.name -> t -> Relational.Tuple.t -> tuple_status
(** A live tuple's conflicts, dominance and fate, decided inside its
    component from the repair cache. Raises [Invalid_argument] when the
    tuple is not part of the instance. *)

type summary = Sharded.summary

val summary : Family.name -> t -> summary
(** How inconsistent the instance is and how far the priority resolves
    it: tuples, conflicts, components, the Rep and family counts and the
    tuple fates, read off the covered components and the free set (no
    free tuple is given a component of its own). [fate_counters] is
    what deciding the fates cost the cache — one warm and one cached
    read per component. *)

type qtrace = Sharded.qtrace

val qtrace : Family.name -> t -> Query.Ast.t -> qtrace
(** {!certainty} with the counters it spent and the family's repair
    count per covered component (the free tuples as one number). Same
    exceptions as {!certainty}. *)

val aggregate_range :
  Family.name -> t -> Aggregate.agg -> (Aggregate.range, string) result
(** Aggregate ranges over the preferred repairs, summed/combined across
    components: SUM and COUNT ranges add; MIN/MAX combine monotonically.
    Exponential only in component sizes. *)
