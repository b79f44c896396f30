module IF = Instance_format

type t = {
  dir : string;
  wal : Wal.t;
  spec : IF.spec;
  engine : Core.Delta.t;
  torn_bytes : int;
  stale_records : int;
  mutable generation : int;
  mutable wal_records : int;
  mutable replay_depth : int;
      (* how many batches a freshly replayed engine could undo — the
         journal's undo horizon. Tracks the snapshot+log pair, not the
         live engine: an [Undo] that would dip below zero cannot
         re-apply on recovery and is rejected at append time. *)
}

let snapshot_path dir = Filename.concat dir "store.snap"
let wal_path dir = Filename.concat dir "wal.log"

(* Store health gauges; one store per server process, refreshed on
   open/log/checkpoint so a scrape sees the current journal state. *)
let m_generation =
  Obs.Registry.gauge ~help:"Snapshot generation of the open store"
    "prefdb_store_generation"

let m_undo_horizon =
  Obs.Registry.gauge ~help:"Journaled batches the store could undo"
    "prefdb_store_undo_horizon"

let m_wal_records =
  Obs.Registry.gauge ~help:"Journal records since the last checkpoint"
    "prefdb_store_wal_records"

let m_replayed =
  Obs.Registry.counter ~help:"WAL records replayed on store open"
    "prefdb_store_replayed_records_total"

let m_stale =
  Obs.Registry.counter ~help:"Stale pre-checkpoint WAL records skipped on open"
    "prefdb_store_stale_records_total"

let m_torn =
  Obs.Registry.counter ~help:"Torn WAL bytes dropped on store open"
    "prefdb_store_torn_bytes_total"

let m_checkpoints =
  Obs.Registry.counter ~help:"Checkpoints taken" "prefdb_store_checkpoints_total"

let refresh_gauges t =
  Obs.Metric.set_gauge m_generation (Float.of_int t.generation);
  Obs.Metric.set_gauge m_undo_horizon (Float.of_int t.replay_depth);
  Obs.Metric.set_gauge m_wal_records (Float.of_int t.wal_records)

let build_engine ?history spec =
  match IF.to_rule spec with
  | Error e -> Error e
  | Ok rule -> Core.Delta.create ~rule ?history spec.IF.fds spec.IF.relation

let unix_error = function
  | Unix.Unix_error (err, fn, arg) ->
    Error (Printf.sprintf "%s(%s): %s" fn arg (Unix.error_message err))
  | e -> raise e

(* --- init --------------------------------------------------------------- *)

let init dir spec =
  match build_engine spec with
  | Error e -> Error ("invalid instance: " ^ e)
  | Ok _ -> (
    match
      (try Unix.mkdir dir 0o755
       with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      Sys.file_exists (snapshot_path dir)
    with
    | true -> Error (Printf.sprintf "%s: store already initialized" dir)
    | exception e -> unix_error e
    | false -> (
      match Snapshot.save (snapshot_path dir) ~generation:0 spec with
      | Error _ as e -> e
      | Ok () -> (
        match Wal.open_append (wal_path dir) with
        | Error _ as e -> e
        | Ok wal ->
          let r = Wal.truncate wal in
          Wal.close wal;
          r)))

(* --- open + replay ------------------------------------------------------ *)

let drop_torn_tail path clean_len =
  match Unix.openfile path [ Unix.O_WRONLY ] 0 with
  | fd ->
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        Unix.ftruncate fd clean_len;
        Unix.fsync fd);
    Ok ()
  | exception e -> unix_error e

(* Records from a generation before the snapshot's are the leftovers of
   a checkpoint whose truncation never reached the disk: their effects
   are already folded into the snapshot, so replaying them would apply
   each a second time. They can only form a prefix — every append after
   a checkpoint carries the new generation — and a record from a future
   generation is impossible on any crash schedule, so both out-of-order
   shapes are reported as corruption rather than skipped. *)
let split_generations snap_gen entries =
  let rec skip_stale n = function
    | (g, _) :: rest when g < snap_gen -> skip_stale (n + 1) rest
    | rest -> (n, rest)
  in
  let stale, current = skip_stale 0 entries in
  match
    List.find_opt (fun (g, _) -> g <> snap_gen) current
  with
  | Some (g, _) when g > snap_gen ->
    Error
      (Printf.sprintf
         "wal record from future generation %d (snapshot is generation %d)" g
         snap_gen)
  | Some (g, _) ->
    Error
      (Printf.sprintf
         "stale wal record (generation %d) after a generation-%d record" g
         snap_gen)
  | None -> Ok (stale, List.map snd current)

(* The relation a journal replays into, without an engine: a growable
   fact array plus the fact id of every live tuple — a slot is live iff
   its tuple maps to it. Deletes tombstone (drop the mapping), inserts
   append under fresh ids, so ids come out exactly as
   [Relation.patch] hands them out on the live path; the relation is
   assembled once, at the end. *)
module Tuple_tbl = Hashtbl.Make (Relational.Tuple)

type slots = {
  schema : Relational.Schema.t;
  mutable facts : Relational.Tuple.t array;
  mutable len : int;
  ids : int Tuple_tbl.t;
}

let slots_of_relation r =
  let entries = Relational.Relation.slots r in
  let ids = Tuple_tbl.create (max 16 (2 * Array.length entries)) in
  Array.iteri (fun i (t, live) -> if live then Tuple_tbl.replace ids t i) entries;
  {
    schema = Relational.Relation.schema r;
    facts = Array.map fst entries;
    len = Array.length entries;
    ids;
  }

let append b t =
  if b.len = Array.length b.facts then begin
    let facts = Array.make (max 16 (2 * b.len)) t in
    Array.blit b.facts 0 facts 0 b.len;
    b.facts <- facts
  end;
  b.facts.(b.len) <- t;
  Tuple_tbl.replace b.ids t b.len;
  b.len <- b.len + 1

let relation_of_slots b =
  let ws = Graphs.Vset.word_size in
  let words = Array.make ((b.len + ws - 1) / ws) 0 in
  Tuple_tbl.iter
    (fun _ i -> words.(i / ws) <- words.(i / ws) lor (1 lsl (i mod ws)))
    b.ids;
  Relational.Relation.of_facts b.schema (Array.sub b.facts 0 b.len)
    (Graphs.Vset.of_words words)

(* One batch with the checks the live path runs ([Conflict.apply_delta]
   and [Relation.patch]) and the same first error: deletes in order,
   each live and listed once, then inserts in order, each conforming,
   not live and listed once. A failing record aborts the whole open, so
   checking and applying go hand in hand; telling "listed twice" from
   "absent"/"present" looks back over the batch only on the error path. *)
let apply_batch b ops =
  let insert, delete = Core.Delta.split ops in
  let str = Relational.Tuple.to_string in
  let earlier t seen = List.exists (Relational.Tuple.equal t) seen in
  let rec deletes seen = function
    | [] -> inserts [] insert
    | t :: rest ->
      if Tuple_tbl.mem b.ids t then begin
        Tuple_tbl.remove b.ids t;
        deletes (t :: seen) rest
      end
      else if earlier t seen then
        Error (Printf.sprintf "delete: tuple %s listed twice" (str t))
      else
        Error
          (Printf.sprintf "delete: tuple %s is not part of the instance"
             (str t))
  and inserts seen = function
    | [] -> Ok ()
    | t :: rest ->
      if not (Relational.Tuple.conforms b.schema t) then
        Error
          (Printf.sprintf "insert: tuple %s does not conform to schema %s"
             (str t)
             (Relational.Schema.name b.schema))
      else if Tuple_tbl.mem b.ids t then
        Error
          (if earlier t seen then
             Printf.sprintf "insert: tuple %s listed twice" (str t)
           else
             Printf.sprintf "insert: tuple %s is already in the instance"
               (str t))
      else begin
        append b t;
        inserts (t :: seen) rest
      end
  in
  deletes [] delete

(* Replay folds one record into the slots, the preferences appended
   since the snapshot (most recent first) and the undo history (inverse
   batches, most recent first) — exactly the state the live process
   kept for it. *)
let replay_entry b (prefs, history) = function
  | Wal.Batch ops -> (
    match apply_batch b ops with
    | Ok () -> Ok (prefs, Core.Delta.inverse ops :: history)
    | Error e -> Error ("batch does not re-apply: " ^ e))
  | Wal.Undo -> (
    match history with
    | [] -> Error "undo does not re-apply: nothing to undo"
    | inverse :: rest -> (
      match apply_batch b inverse with
      | Ok () -> Ok (prefs, rest)
      | Error e -> Error ("undo does not re-apply: " ^ e)))
  (* a preference rebuilds the live engine with fresh history *)
  | Wal.Prefer p -> Ok (p :: prefs, [])

(* The recovered state is the snapshot plus the journal's net change:
   the priority is an orientation fixed by the final instance and
   preferences, whatever path produced them, so the engine is built
   once over the final spec with the replayed history handed over. *)
let recover spec0 entries =
  match entries with
  | [] -> (
    match build_engine spec0 with
    | Ok engine -> Ok (spec0, engine)
    | Error e -> Error ("snapshot does not build: " ^ e))
  | _ -> (
    let b = slots_of_relation spec0.IF.relation in
    let rec replay acc n = function
      | [] -> Ok acc
      | entry :: rest -> (
        match replay_entry b acc entry with
        | Ok acc -> replay acc (n + 1) rest
        | Error e -> Error (Printf.sprintf "wal record %d: %s" (n + 1) e))
    in
    match replay ([], []) 0 entries with
    | Error _ as e -> e
    | Ok (prefs, history) -> (
      let built =
        match relation_of_slots b with
        | exception Invalid_argument e -> Error e
        | relation ->
          let spec =
            { spec0 with IF.prefs = spec0.IF.prefs @ List.rev prefs; relation }
          in
          Result.map (fun engine -> (spec, engine)) (build_engine ~history spec)
      in
      match built with
      | Ok _ as ok -> ok
      | Error e -> Error ("replayed state does not build: " ^ e)))

let open_ dir =
  Obs.Span.with_span "store.open" @@ fun () ->
  match Snapshot.load (snapshot_path dir) with
  | Error _ as e -> e
  | Ok (spec0, generation) -> (
    match Wal.replay (wal_path dir) with
    | Error _ as e -> e
    | Ok (entries, clean_len, torn) -> (
      let truncated =
        if torn > 0 then drop_torn_tail (wal_path dir) clean_len else Ok ()
      in
      match truncated with
      | Error _ as e -> e
      | Ok () -> (
        match split_generations generation entries with
        | Error _ as e -> e
        | Ok (stale, entries) -> (
          match recover spec0 entries with
          | Error _ as e -> e
          | Ok (spec, engine) -> (
            let replayed = List.length entries in
            if Obs.Span.enabled () then
              Obs.Span.annotate
                [
                  ("wal_records", Obs.Event.Int replayed);
                  ("stale_records", Obs.Event.Int stale);
                  ("torn_bytes", Obs.Event.Int torn);
                  ("generation", Obs.Event.Int generation);
                ];
            match Wal.open_append (wal_path dir) with
            | Error _ as e -> e
            | Ok wal ->
              let t =
                {
                  dir;
                  wal;
                  spec;
                  engine;
                  torn_bytes = torn;
                  stale_records = stale;
                  generation;
                  wal_records = replayed;
                  replay_depth = Core.Delta.history_depth engine;
                }
              in
              Obs.Metric.incr ~by:replayed m_replayed;
              Obs.Metric.incr ~by:stale m_stale;
              Obs.Metric.incr ~by:torn m_torn;
              refresh_gauges t;
              Ok t)))))

(* --- the journal -------------------------------------------------------- *)

let spec t = t.spec
let engine t = t.engine
let dir t = t.dir
let generation t = t.generation
let wal_records t = t.wal_records
let torn_bytes t = t.torn_bytes
let stale_records t = t.stale_records

let log t entry =
  match entry with
  | Wal.Undo when t.replay_depth = 0 ->
    Error
      "undo would revert past the last snapshot (the snapshot is the undo \
       horizon)"
  | _ -> (
    match Wal.append t.wal ~gen:t.generation entry with
    | Ok () ->
      t.wal_records <- t.wal_records + 1;
      (match entry with
      | Wal.Batch _ -> t.replay_depth <- t.replay_depth + 1
      | Wal.Undo -> t.replay_depth <- t.replay_depth - 1
      (* a preference rebuilds the engine from scratch on replay, with
         fresh (empty) history *)
      | Wal.Prefer _ -> t.replay_depth <- 0);
      refresh_gauges t;
      Ok ()
    | Error _ as e -> e)

let checkpoint t spec =
  Obs.Span.with_span "store.checkpoint" @@ fun () ->
  let generation = t.generation + 1 in
  match Snapshot.save (snapshot_path t.dir) ~generation spec with
  | Error _ as e -> e
  | Ok () -> (
    (* the new snapshot is durable: from here on, records journal
       against the new generation and replay skips everything older —
       even if the truncation below never happens (crash, I/O error),
       the snapshot + log pair stays consistent *)
    t.generation <- generation;
    t.wal_records <- 0;
    t.replay_depth <- 0;
    Obs.Metric.incr m_checkpoints;
    refresh_gauges t;
    match Wal.truncate t.wal with
    | Ok () -> Ok ()
    | Error _ as e -> e)

let close t = Wal.close t.wal
