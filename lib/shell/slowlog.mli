(** The slow-query log: one JSONL record per over-threshold query.

    When serving (or the CLI) runs with a slow-query threshold, any
    query whose wall time crosses it appends one self-contained JSON
    object to the log — the operator's path from "p99 spiked" to "this
    plan misestimated this join" without re-running anything:

    {v
    {"ts": ..., "cmd": "query", "query": "...", "verdict": "...",
     "wall_ms": ..., "phases": [{"name": ..., "seconds": ..., "count": ...}],
     "explain": { planner report with est/actual cardinalities },
     "explain_text": "plan: ..."}
    v} *)

type record = {
  ts : float;  (** unix time the query finished *)
  cmd : string;  (** the command word: query, explain, plan, ... *)
  query : string;  (** the query text as received *)
  verdict : string;  (** first line of the command's output *)
  wall_ms : float;
  phases : (string * float * int) list;
      (** per-span inclusive seconds and counts, from {!Obs.Profile.flat} *)
  explain : (string * Obs.Json.t) option;
      (** the planner report (text and JSON forms), when one could be
          produced for this query *)
}

val to_json : record -> Obs.Json.t

val append : path:string -> record -> (unit, string) result
(** Append one record line, creating the file if needed. *)

(** {2 Capture}

    The serve loop and [prefdb query --slow-query-ms] share these: run
    the command under {!capture}, and when its wall time {!crosses} the
    threshold, {!append} its {!record}. *)

val capture : (unit -> 'a) -> 'a * Obs.Event.t list
(** [capture f] runs [f] with a memory sink teed onto whatever span
    sink is live and returns its result with the spans it emitted. *)

val crosses : threshold_ms:float -> float -> bool
(** Whether a wall time in seconds reaches the threshold. *)

val record :
  Session.state ->
  cmd:string ->
  query:string ->
  wall:float ->
  events:Obs.Event.t list ->
  string ->
  record
(** [record session ~cmd ~query ~wall ~events output]: the record of a
    captured command that printed [output] (its first line is the
    verdict), with the planner report of [query] over [session]'s
    instance when one can be produced. *)

val validate_line : string -> (unit, string) result
(** Check one log line: parses as an object, carries the required
    fields with the right types, finite numbers. *)

val validate_file : string -> (int, string) result
(** Validate every line; returns the record count. *)
