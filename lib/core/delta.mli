(** The incremental update engine.

    Ties the delta paths of the individual layers into one stateful
    value: a batch of tuple insertions and deletions flows through
    {!Conflict.apply_delta} (append/tombstone graph maintenance),
    {!Pref_rules.orient} + {!Priority.update} (re-orient only the new
    edges, drop arcs of tombstoned tuples, re-validate acyclicity) and
    {!Decompose.apply_delta} (re-decompose only the touched components,
    keep every untouched component's cached repair lists live).

    The headline property: answering a query after an update costs
    recomputation only for the components the update actually dirtied.
    On an instance of many small components this beats the rebuild
    ([Conflict.build] + [Decompose.make] + cold cache) by orders of
    magnitude — see the DELTA section of the benchmark suite.

    Every successful batch records its inverse, so {!undo} is an
    ordinary incremental update replayed backwards (and therefore
    exactly as cheap). A failed batch — schema mismatch, deleting an
    absent tuple, a preference rule turning cyclic on the new instance —
    leaves the engine observably unchanged.

    The handle is {!Journal.Make} bound to the binary conflict graph;
    {!Hdelta} binds the same handle to the hypergraph. *)

open Relational

type t
(** Mutable: {!apply} and {!undo} advance the engine in place. The
    underlying [Conflict.t]/[Priority.t]/[Decompose.t] values remain
    persistent — snapshots taken via the accessors stay valid. *)

type op = Journal.op = Insert of Tuple.t | Delete of Tuple.t

type report = {
  inserted : int;
  deleted : int;
  edges_added : int;  (** conflict edges the batch created *)
  edges_removed : int;  (** conflict edges the batch destroyed *)
  components_dirtied : int;  (** components re-decomposed *)
  cache_evicted : int;  (** cached repair lists invalidated *)
  cache_retained : int;  (** cached repair lists carried over live *)
}
(** What one batch did — the per-batch view of the cumulative
    {!Decompose.counters} telemetry. *)

val create :
  ?rule:Pref_rules.rule ->
  ?history:op list list ->
  Constraints.Fd.t list ->
  Relation.t ->
  (t, string) result
(** Builds the initial conflict graph, priority and decomposition from
    scratch. [rule] orients conflict edges as in {!Pref_rules.apply}
    (default: no preferences, i.e. the empty priority); fails when the
    rule is cyclic on the instance or an FD does not fit the schema.

    [history] (default empty) is the undo history the engine starts
    with: inverse batches, most recent first, as {!inverse} forms them.
    A store's recovery rebuilds the relation from its journal without
    an engine and hands the history over here, so {!history_depth} and
    {!undo} behave as in the process that wrote the journal. The caller
    vouches that each inverse re-applies in turn. *)

val inverse : op list -> op list
(** The batch that undoes an accepted [ops]: its inserts deleted, then
    its deletes re-inserted. *)

val split : op list -> Tuple.t list * Tuple.t list
(** [(inserts, deletes)], each in list order — the order in which an
    accepted batch appends its inserts under fresh ids. *)

val apply : t -> op list -> (report, string) result
(** Applies one batch atomically: on [Error] nothing changed — not the
    instance, not the priority, not the cache. Deletions are applied
    before insertions ({!Conflict.apply_delta}'s convention), so a batch
    may delete and re-insert the same tuple value. An empty batch is a
    valid no-op. *)

val undo : t -> (report, string) result
(** Reverts the most recent not-yet-undone batch by applying its
    inverse (inserted tuples deleted, deleted tuples re-inserted — under
    fresh ids, as any insertion). Errors when there is nothing to
    undo. *)

val history_depth : t -> int
(** Number of batches available to {!undo}. *)

val drop_history : t -> unit
(** Empties the undo history without touching the instance: subsequent
    {!undo}s report nothing to undo. Used when an external durability
    boundary (a store checkpoint) makes states older than the current
    one unreachable — a reopened store cannot replay past its snapshot,
    so the live engine must not undo past it either. *)

val conflict : t -> Conflict.t
val priority : t -> Priority.t

val decompose : t -> Decompose.t
(** The live decomposition — query through this to benefit from the
    retained component caches; its {!Decompose.counters} accumulate over
    the engine's whole history. *)

val relation : t -> Relation.t
(** The current live instance. *)

val column_stats : t -> Planner.Stats.t
(** Exact per-column statistics over the live instance, built by one
    full scan on first demand and thereafter patched in place by every
    accepted batch — {!apply} and {!undo} alike — so they never go
    stale and never rescan. The value's [patched]/[rebuilt] counters
    expose the maintenance history (surfaced by the shell's [stats]
    command). *)

val stats_lookup : t -> string -> Planner.Stats.t option
(** The {!column_stats} as the by-name lookup the planner consumes
    ([Planner.Engine]'s [?stats]): [Some] for the engine's own relation,
    [None] for anything else. Forces the first scan. *)

val pp_report : Format.formatter -> report -> unit
