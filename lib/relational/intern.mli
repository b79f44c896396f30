(** Process-wide string interning.

    The dictionary behind {!Value.pack}: every distinct name constant is
    assigned a small dense integer id the first time it is seen, and two
    strings are equal iff their ids are equal. Ids are never reused or
    invalidated, so a packed value remains meaningful for the lifetime
    of the process.

    Interning is {e load-time only}: nothing about the dictionary is
    persisted — the on-disk instance format stores plain strings, and a
    fresh process rebuilds the dictionary while parsing.

    All operations are thread-safe: the dictionary is one per process,
    shared by every domain. Interning is guarded by a mutex, so
    concurrent interning (e.g. tuple packing on pool workers) cannot
    corrupt the table or hand out duplicate ids; {!string_of_id} and
    {!count} take no lock. *)

val id_of_string : string -> int
(** The id of [s], interning it first if it has never been seen.
    O(1) amortized (one hash table probe). *)

val string_of_id : int -> string
(** Inverse of {!id_of_string}. Raises [Invalid_argument] on an id that
    was never handed out. *)

val mem : string -> bool
(** Whether the string has already been interned (no side effect). *)

val count : unit -> int
(** Number of distinct strings interned so far — the dictionary size
    reported by telemetry. *)
