(** Per-column statistics over a {!Relational.Relation}.

    The cost model's input. Statistics come in two grades. [quick] costs
    O(arity) on top of what the relation already knows: live cardinality
    plus distinct counts and int bounds for columns whose postings are
    already built (it never forces an index build, so it is safe in the
    per-repair hot path). [scan] is exact: one pass over the live tuples
    builds per-column value-count tables, yielding exact distinct counts
    and int min/max — and those count tables are what makes {!patch}
    possible, folding a mutation batch in without rescanning. *)

open Relational

type t

val quick : Relation.t -> t
(** Cheap statistics from whatever the relation's lazily built postings
    already know. Never builds an index. Columns without a ready posting
    report unknown distinct counts and no bounds. On a view
    ({!Relational.Relation.restrict_view}) the row count is the view's,
    but distinct counts and bounds are read from the base's postings
    (the columns the base has built), so they are upper bounds: a
    distinct count at least the view's and an interval containing the
    view's values. *)

val scan : Relation.t -> t
(** Exact statistics from one full pass, keeping per-column value-count
    tables so the result is patchable. Emits a ["planner.stats"] span. *)

val rebuild : t -> Relation.t -> unit
(** Rescan in place (exact stats only in practice — the count tables are
    refilled when present), bumping the {!rebuilt} counter. *)

val patch : t -> delete:Tuple.t list -> insert:Tuple.t list -> unit
(** Fold a mutation batch into exact statistics in place: O(batch ·
    arity) expected, except that a delete removing a column's current
    min/max value entirely pays one O(distinct) bound recomputation.
    Deletions are applied before insertions, matching the instance's
    batch convention. Raises [Invalid_argument] on [quick] statistics or
    when deleting a value the statistics never counted. *)

val relation_name : t -> string
val rows : t -> int
val arity : t -> int

val exact : t -> bool
(** [true] for {!scan}-built statistics, [false] for {!quick}. *)

val distinct : t -> int -> int option
(** Distinct live values in the column; [None] when unknown (quick stats
    over a column with no ready posting). *)

val bounds : t -> int -> (int * int) option
(** Packed (min, max) of an int column's live values; [None] when
    unknown or the relation is empty. {!Relational.Value.pack} is
    strictly monotone on ints, so packed order is numeric order. *)

val column_ty : t -> int -> [ `Name | `Int ]

val patched : t -> int
(** Batches folded in by {!patch} since the last scan — together with
    {!rebuilt} this is the staleness/invalidation counter surfaced by
    the shell's [stats] command. *)

val rebuilt : t -> int
(** Full scans performed ({!scan} counts as the first). *)

val pp : Format.formatter -> t -> unit
