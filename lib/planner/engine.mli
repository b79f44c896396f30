(** The planning query engine: cost-based compiler with evaluator
    fallback.

    The per-repair query evaluator: queries inside the compilable
    fragment (see {!Compile}) run as physical plans; the rest run
    through the active-domain evaluator {!Query.Eval}. Both agree on
    the fragment (cross-checked by the test suite), so callers get one
    semantics and the best available speed.

    [?stats] supplies per-relation statistics by name (e.g. the durable
    store's incrementally maintained ones); omitted, cheap
    {!Stats.quick} statistics are derived on the fly. *)

open Relational
open Query

val holds : ?stats:(string -> Stats.t option) -> Database.t -> Ast.t -> bool
(** Closed queries; raises like {!Query.Eval.holds} on ill-formed input. *)

val answers :
  ?stats:(string -> Stats.t option) ->
  Database.t ->
  Ast.t ->
  string list * Value.t list list

val holds_spanned :
  ?stats:(string -> Stats.t option) -> Database.t -> Ast.t -> bool
(** As {!holds}, bracketing planning and execution in ["planner.plan"] /
    ["planner.execute"] spans — for the interactive surfaces and the
    bench harness; the un-spanned variants serve the per-repair hot
    loop. *)

val answers_spanned :
  ?stats:(string -> Stats.t option) ->
  Database.t ->
  Ast.t ->
  string list * Value.t list list

val holds_relation :
  ?stats:(string -> Stats.t option) -> Relation.t -> Ast.t -> bool

val answers_relation :
  ?stats:(string -> Stats.t option) ->
  Relation.t ->
  Ast.t ->
  string list * Value.t list list

val prepare : Relation.t -> Ast.t -> unit
(** Force, on the relation's base, the postings a plan for the query can
    read and the membership index ({!Relation.prepare_column},
    {!Relation.prepare_lookup}), so that every view of the relation
    evaluates the query without building an index. The columns forced
    are the positions of the query's atoms over the relation that hold a
    constant, a variable shared with another atom (a merge-join column)
    or a variable compared with a constant other than by [<>] (a probe
    or a range scan); a column the query only binds, or compares only
    with other variables, is left alone — over a unique-valued column
    the postings cost (largest id)²/126 words. Both memos mutate in
    place: call this on the submitting domain, before views go to
    parallel jobs. *)

val planned : ?stats:(string -> Stats.t option) -> Database.t -> Ast.t -> bool
(** Whether the query compiles to a physical plan (diagnostics). *)
