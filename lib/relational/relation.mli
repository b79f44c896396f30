(** Relation instances.

    An instance is a finite set of tuples over a schema (set semantics, as
    in the paper). Insertion validates tuples against the schema, so a
    well-typed instance is an invariant of the type.

    The representation is an id-addressed fact store: tuples live in an
    insertion-ordered array, and a tuple's slot in that array is its
    {e fact id} — the identity the rest of the repository speaks. Vertex
    ids of the conflict graph built from an instance are exactly its fact
    ids. Deleting a tuple tombstones its slot (the id is never reused),
    which is what keeps ids stable under the incremental-update path
    ({!patch}). Membership is a hash-index probe, and per-column postings
    (packed value -> fact ids, see {!matching}) answer FD grouping and
    selection queries without scanning. *)

type t

val empty : Schema.t -> t

val of_tuples : Schema.t -> Tuple.t list -> t
(** Duplicates are collapsed (first occurrence wins the fact id). Raises
    [Invalid_argument] when a tuple does not conform to the schema. *)

val of_rows : Schema.t -> Value.t list list -> t
(** Convenience: each row becomes a tuple. *)

val schema : t -> Schema.t

val cardinality : t -> int
(** Number of live tuples. O(1). *)

val is_empty : t -> bool
val mem : t -> Tuple.t -> bool

val add : t -> Tuple.t -> t
(** Appends a fresh fact id when the tuple is new; no-op otherwise. *)

val remove : t -> Tuple.t -> t
(** Tombstones the tuple's slot; the fact array is shared, not copied. *)

val tuples : t -> Tuple.t list
(** In increasing {!Tuple.compare} order (canonical). *)

val tuple_array : t -> Tuple.t array
(** The live tuples in fact-id order: the index of a tuple in this array
    is its conflict-graph vertex id {e when the instance is dense} (no
    tuple was ever removed), which holds for every freshly built
    instance. On a dense instance this is the internal fact array, O(1) —
    treat it as read-only. On a tombstoned instance a fresh compacted
    array is returned and positions are {e not} fact ids; use {!fact} and
    {!live_ids} there. *)

val union : t -> t -> t
(** Set union; schemas must be equal ([Invalid_argument] otherwise).
    Models the source integration of Example 1, r = s1 ∪ s2 ∪ s3.
    Fact ids are renumbered: left operand first, then new right tuples. *)

val inter : t -> t -> t
(** Keeps the left operand's fact ids (a live-set restriction). *)

val diff : t -> t -> t
(** Keeps the left operand's fact ids (a live-set restriction). *)

val subset : t -> t -> bool
val equal : t -> t -> bool

val compare : t -> t -> int
(** Order on the canonical tuple enumeration, independent of fact ids. *)

val filter : (Tuple.t -> bool) -> t -> t
(** Live-set restriction: surviving tuples keep their fact ids. *)

val for_all : (Tuple.t -> bool) -> t -> bool
val exists : (Tuple.t -> bool) -> t -> bool

val fold : (Tuple.t -> 'a -> 'a) -> t -> 'a -> 'a
(** In fact-id order, like {!iter}. *)

val iter : (Tuple.t -> unit) -> t -> unit

val restrict : t -> Tuple.t list -> t
(** Keep only the listed tuples (used to materialize a repair). Builds a
    fresh dense instance; ids are renumbered in list order. *)

val active_domain : t -> Value.t list
(** All values occurring in the instance, de-duplicated and sorted. *)

val pp : Format.formatter -> t -> unit

(** {2 Fact ids}

    The tuple-identity substrate: stable small ints shared with the
    conflict graph, ground demands, and the incremental-update engine. *)

val slot_count : t -> int
(** Number of slots ever allocated (live + tombstoned). Fact ids range
    over [0, slot_count); {!cardinality} of them are live. *)

val live_ids : t -> Graphs.Vset.t
(** The set of live fact ids. *)

val fact : t -> int -> Tuple.t
(** The tuple at a fact id, whether live or tombstoned (a tombstoned
    slot remembers its tuple, which the undo path relies on). Raises
    [Invalid_argument] on an unallocated id. *)

val find : t -> Tuple.t -> int option
(** The live fact id of a tuple, if present. O(1) expected. *)

val find_exn : t -> Tuple.t -> int
(** Like {!find}; raises [Invalid_argument] with context otherwise. *)

val restrict_ids : t -> Graphs.Vset.t -> t
(** Live-set restriction by fact ids; must be a subset of {!live_ids}.
    On a view the result is a view of the same base. *)

(** {2 Views}

    A view is a subset of a base relation's live facts, under the base's
    own fact ids, that shares the base's fact array, hash index and
    postings memo instead of copying them: a repair r′ ⊆ r evaluated as
    r masked by r′. Every postings reader ({!matching},
    {!matching_range}, {!groups}, {!iter_groups}, {!postings_ready},
    {!group_count}, {!group_bounds}) reads a column the base has built
    and masks it by the view's live set; a column the base has not
    built is built over the view alone, in the view's own memo, so a
    view never mutates its base. {!restrict_ids}, {!filter} and
    {!remove} on a view are views of the same base; {!add}, {!patch}
    and every constructor return an ordinary relation. *)

val restrict_view : t -> Graphs.Vset.t -> t
(** [restrict_view r ids] is [r] restricted to [ids] (a subset of
    {!live_ids}, [Invalid_argument] otherwise) as a view of [r]'s base:
    O(ids/63) words, no tuple copied and no index rebuilt. *)

val base : t -> t
(** The relation whose postings a view masks; any other relation is its
    own base. *)

val slots : t -> (Tuple.t * bool) array
(** Every slot ever allocated, in fact-id order, live-flagged: the full
    serialization view of the store (tombstoned slots included, so a
    reload reproduces fact ids {e and} the slot counter exactly). The
    array is fresh; mutating it does not affect the relation. *)

val of_slots : ?checked:bool -> Schema.t -> (Tuple.t * bool) array -> t
(** Inverse of {!slots}: rebuilds the instance with slot [i] holding the
    [i]-th tuple, live iff flagged. Sugar over {!of_facts}. *)

val of_facts : ?checked:bool -> Schema.t -> Tuple.t array -> Graphs.Vset.t -> t
(** The bulk-load constructor: slot [i] holds [facts.(i)], live iff
    [i ∈ live]. The membership index is built lazily on the first
    {!find} from the tuples' cached hashes (no value re-hashing) and
    postings stay lazy, so construction is O(slots). With [checked]
    (the default) raises [Invalid_argument] on a tuple that does not
    conform to the schema or on two live slots holding equal tuples;
    [~checked:false] skips both scans and is reserved for input whose
    invariants are already attested — the CRC-verified snapshot path,
    where they held at encode time and the checksum rules out change
    since. Always raises on a live id with no slot. The caller must
    not mutate [facts] afterwards. *)

val prepare_index : t -> unit
(** Force the postings of {e every} column now (one ["relation.index"]
    span per column built); on a view, the base's columns. Once built they are maintained incrementally
    by {!patch}. Prefer {!prepare_column} when only some columns are
    grouped on: a postings map over a high-cardinality column that is
    never probed (unique ids, payload attributes) costs more to build
    than all the useful maps together. *)

val prepare_column : t -> int -> unit
(** Force the postings of one column (span ["relation.index"] with a
    ["column"] argument). The delta path ({!Conflict.build}) forces
    exactly the FD lhs columns it groups on. On a view this forces the
    {e base's} column, which every view of that base then reads. Forcing
    mutates the lazy memo in place, so do it on the submitting domain
    before sharing the relation with parallel workers. *)

val prepare_lookup : t -> unit
(** Force the membership index behind {!find} and {!mem} now. It is
    built lazily and shared by every relation derived from the same root,
    views included; forcing one lazy value from two domains at once is
    an error, so force it on the submitting domain before views of the
    relation go to parallel jobs. *)

val matching : t -> int -> int -> Graphs.Vset.t
(** [matching r col packed] is the set of live fact ids whose tuple has
    packed value [packed] (see {!Value.pack}) in column [col]: a postings
    probe, no scan. The column's postings are built lazily on first use
    (span ["relation.index"]) and maintained incrementally by {!patch}. *)

val iter_groups : t -> int -> (int -> Graphs.Vset.t -> unit) -> unit
(** Iterate the postings of one column: [f packed ids] for every distinct
    packed value. This is the FD group-by kernel — for a single-attribute
    FD lhs the groups are exactly the postings entries. *)

val postings_ready : t -> int -> bool
(** Whether the column's postings are already materialized (on a view:
    by the base or by the view itself). The planner's quick statistics
    consult only ready columns — probing this never forces a build.
    Out-of-range columns are simply [false]. *)

val groups : t -> int -> (int * Graphs.Vset.t) Seq.t
(** The postings of one column as a sequence of [(packed, ids)] groups in
    increasing packed order. Packing is strictly monotone on ints, so on
    an int-typed column this is the numeric order — the sorted-posting
    merge join walks two of these sequences in lockstep. Forces the
    column (span ["relation.index"]). *)

val group_count : t -> int -> int
(** Number of distinct live values in the column (the exact per-column
    distinct count). Forces the column's postings; O(distinct) on a
    built column, one mask test per base group on a view. *)

val group_bounds : t -> int -> (int * int) option
(** Smallest and largest packed value in the column, [None] when empty.
    On an int-typed column these are the numeric min and max (packed).
    Forces the column's postings; O(log distinct) on a built column. *)

val matching_range : t -> int -> lo:(int * bool) option -> hi:(int * bool) option -> Graphs.Vset.t
(** [matching_range r col ~lo ~hi] is the set of live fact ids whose
    packed value in [col] lies between the bounds — each bound a packed
    value plus an inclusive flag, [None] for unbounded. Only meaningful
    on int-typed columns (packed order = numeric order there); a range
    scan, O(selected + groups in range), never a full-instance pass once
    the postings exist. *)

val patch :
  t -> delete:Tuple.t list -> insert:Tuple.t list -> t * int list * int list
(** [patch r ~delete ~insert] applies a batched update and returns
    [(r', deleted_ids, inserted_ids)] with ids in the order of the input
    lists. Deleted slots are tombstoned (ids never reused); inserted
    tuples get fresh ids [slot_count r + k] in list order — the contract
    {!Conflict.apply_delta} builds on. Raises [Invalid_argument] when a
    deleted tuple is absent, an inserted tuple is already present (after
    deletions) or does not conform, or either list repeats a tuple;
    validation happens before any change is visible. *)

(** {2 Bulk construction}

    Deduplicating accumulator used by [of_tuples], [union] and the
    algebra evaluator: amortized O(1) insertion against a hash table,
    turning what would be quadratic repeated-[add] loops into linear
    builds. *)
module Builder : sig
  type relation := t
  type t

  val create : ?size_hint:int -> Schema.t -> t

  val add : t -> Tuple.t -> unit
  (** Deduplicating; validates against the schema. *)

  val add_row : t -> Value.t list -> unit
  val mem : t -> Tuple.t -> bool

  val size : t -> int
  (** Number of distinct tuples added so far. *)

  val finish : t -> relation
  (** Fact ids are assigned in first-insertion order. *)
end
