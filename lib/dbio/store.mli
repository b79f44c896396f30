(** The durable store: one directory, one snapshot, one log.

    Layout of a store directory:

    {v
    store.snap   binary snapshot (see Snapshot)
    wal.log      write-ahead log of mutations since the snapshot (see Wal)
    v}

    {!open_} loads the snapshot, replays the log (truncating a torn
    tail left by a crash mid-append, skipping records from generations
    before the snapshot's — leftovers of a {!checkpoint} whose
    truncation never reached the disk), and hands back the recovered
    spec together with a {!Core.Delta} engine whose fact ids,
    preferences, answers and undo history match the pre-crash process
    exactly. Replay folds the records into the relation alone, in one
    pass — tombstoning deletes and appending inserts under fresh ids in
    the order the live engine does, keeping the inverse of every batch
    as the undo history — and then builds the engine once over the
    final spec with that history handed over: the priority is fixed by
    the final instance and preferences, whatever path led there.

    After open the caller owns the state's evolution; the store only
    journals it: call {!log} after each successful mutation (the
    ack-after-fsync point) and {!checkpoint} to fold the log into a
    fresh snapshot.

    {b The snapshot is the undo horizon.} A replayed engine's history
    reaches back only to the snapshot, so an [Undo] that would revert
    past the last checkpoint cannot re-apply on recovery; {!log}
    rejects it at append time (keeping the journal replayable) rather
    than letting a later {!open_} fail. Callers should mirror the
    horizon in the live engine with {!Core.Delta.drop_history} after a
    successful checkpoint, so the live and recovered sessions agree on
    what is undoable. *)

type t

val snapshot_path : string -> string
val wal_path : string -> string

val init : string -> Instance_format.spec -> (unit, string) result
(** Creates the directory if needed, writes the initial snapshot
    (generation 0) and an empty log. Fails if the spec's preferences
    are invalid (they would poison every subsequent open) or if a
    store already exists in the directory. *)

val open_ : string -> (t, string) result
(** Load + replay + one engine build. Fails when the snapshot is
    missing or corrupt, when a current-generation log record does not
    re-apply ([wal record N: …]: a delete of a tuple that is not live,
    an insert of one that is, an undo with nothing to undo), or when
    the final state does not build ("snapshot does not build" with no
    record replayed, "replayed state does not build" otherwise) — each
    means the store cannot be trusted. *)

val spec : t -> Instance_format.spec
(** The recovered spec, as of {!open_} (log replayed). *)

val engine : t -> Core.Delta.t
(** The warm engine, as of {!open_}. Mutable — the caller advances it;
    the store does not touch it afterwards. *)

val dir : t -> string

val generation : t -> int
(** The snapshot generation records currently journal against;
    incremented by every successful {!checkpoint}. *)

val log : t -> Wal.entry -> (unit, string) result
(** Append + fsync. Call only after the mutation succeeded in the
    engine — a logged record must re-apply on recovery — except for
    [Undo], which is safe to journal {e before} the engine undo (its
    replayability depends only on the journal, and rejection must
    precede the in-memory change). Rejects an [Undo] that would revert
    past the last snapshot. *)

val wal_records : t -> int
(** Current-generation records in the log (replayed at open + appended
    since, minus checkpoints). The serve loop's snapshot heuristic
    input. *)

val torn_bytes : t -> int
(** Bytes discarded from the log tail at open — nonzero after
    recovering from a crash mid-append. *)

val stale_records : t -> int
(** Records skipped at open because their generation predates the
    snapshot's — nonzero after recovering from a crash between a
    checkpoint's snapshot rename and its log truncation. *)

val checkpoint : t -> Instance_format.spec -> (unit, string) result
(** Atomically replace the snapshot with [spec] (the caller's current
    state) at the next generation, then empty the log. If the snapshot
    fails, the old snapshot + log pair is still intact. If only the
    truncation fails, the store is {e still consistent}: subsequent
    records journal against the new generation and the stale ones are
    skipped at the next open. *)

val close : t -> unit
