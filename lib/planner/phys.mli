(** Physical query plans.

    The executable operator trees emitted by {!Compile}: postings-probe
    and range scans over base relations, hash and sorted-posting merge
    joins, filters, projections, anti-joins (generalized difference for
    negation and bounded universals) and unions (disjunction), plus a
    boolean combinator layer for closed queries. Nodes carry estimated
    cardinalities from plan time and record actual cardinalities on
    execution — EXPLAIN renders both. Results are cached per node, so a
    subtree shared between disjuncts runs once. *)

open Relational

type range = { rlo : (int * bool) option; rhi : (int * bool) option }
(** Packed bound + inclusive flag per side; [None] = unbounded. *)

type access = {
  probes : (int * Value.t) list;  (** column = constant, a postings probe *)
  range : (int * range) option;  (** one range-scanned int column *)
  residual : Algebra.selection list;  (** checked per surviving tuple *)
}

type node = {
  nid : int;
  tys : Schema.ty array;  (** output column types *)
  mutable est : float;  (** estimated output cardinality *)
  mutable dist : float array;  (** estimated distinct values per column *)
  mutable actual : int;  (** actual output cardinality; -1 = not executed *)
  mutable cached : Relation.t option;
  shape : shape;
}

and shape =
  | Scan of { sname : string; aidx : int; srel : Relation.t; access : access }
      (** [aidx] is the source atom's position in the query, for EXPLAIN *)
  | Hash_join of {
      pairs : (int * int) list;
      left : node;
      right : node;
      build_left : bool;
    }  (** output = left columns then right columns, whatever the build side *)
  | Merge_join of { lcol : int; rcol : int; left : node; right : node }
      (** lockstep walk of both sides' sorted postings on the join column *)
  | Filter of Algebra.selection * node
  | Project of int list * node
  | Diff of node * node  (** anti-join: left rows absent from right *)
  | Union of node list
  | Empty

type bnode = { mutable bval : bool option; bshape : bshape }

and bshape =
  | B_const of bool
  | B_not of bnode
  | B_and of bnode list
  | B_or of bnode list
  | B_block of node  (** true iff the block produces at least one row *)

type plan = Rows of { free : string list; root : node } | Bool of bnode
(** Open queries produce [Rows] (free variables in the projection order,
    sorted, matching {!Query.Eval.answers}); closed queries produce
    [Bool]. *)

val node : Schema.ty array -> shape -> node
(** Fresh node with unknown estimates, unexecuted. *)

val exec : node -> Relation.t
(** Execute (or return the cached result), recording actual
    cardinalities down the tree. *)

val rows : node -> Tuple.t list
(** The output of a root node in {!Relation.tuples} order (sorted,
    distinct), executing it as {!exec} does; a root projection records
    its actual cardinality without materializing a relation. *)

val run_bool : bnode -> bool
(** Short-circuit evaluation; each visited block records its verdict and
    cardinalities for EXPLAIN. *)

val pp : Format.formatter -> node -> unit
val pp_plan : Format.formatter -> plan -> unit
val pp_access : Format.formatter -> access -> unit

val to_json : node -> Obs.Json.t
val plan_to_json : plan -> Obs.Json.t
