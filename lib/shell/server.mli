(** The serve loop: one warm session behind a unix socket.

    A long-running process owning a {!Dbio.Store} and one {!Session}
    whose engine stays warm across requests — repeated queries pay the
    conflict-graph build and component caches once, not per invocation.
    Clients connect to [serve.sock] in the store directory and speak
    the shell command language, one request per line, in either of two
    framings:

    {v
    -- text: the raw command line
    query Mgr('Mary', d, s)
    -- response: a status line with a byte count, then that many bytes
    ok 23
    c: certainty: certain

    -- json: a line starting with '{'
    {"cmd": "query Mgr('Mary', d, s)"}
    -- response: one JSON object per line
    {"ok": true, "output": "c: certainty: certain"}
    v}

    A connection may issue any number of requests; closing the socket
    ends it. Connections are served one at a time, so reads and writes
    on an accepted socket carry a timeout ({!config.request_timeout},
    default 10 seconds, [PREFDB_REQUEST_TIMEOUT] overrides), and each
    request line must arrive whole within that many seconds — a client
    that connects and goes quiet, or trickles a request a byte at a
    time, is dropped rather than blocking every other client (including
    a [shutdown]).  A client that disconnects
    mid-response only kills its own connection; timeouts and broken
    pipes are counted separately in the serve metrics.  A request line
    longer than {!max_request_bytes} is answered with an error frame
    and its connection closed (counted in
    [prefdb_serve_oversized_requests_total]), so a client streaming
    bytes without a newline cannot grow the server's memory.  Mutations
    ([insert]/[delete]/[undo]/[prefer]) are journaled to the store's
    write-ahead log — fsynced before the response is sent — so an
    acknowledged change survives [kill -9]; a mutation whose journal
    append fails is rolled back (or never applied) and reported as an
    error, keeping the served state replayable.

    Beyond the session language the server answers [ping] (liveness),
    [snapshot] (fold the log into a fresh snapshot and truncate it —
    after which the snapshot is the undo horizon: older mutations can
    no longer be undone, live or recovered), [metrics] (the process
    metrics — Prometheus text exposition over the text framing, with
    the structured form attached to the JSON framing as a ["metrics"]
    field), [status] with no arguments (uptime, generation, journal
    and request totals; [status VALUES] still reaches the session's
    tuple-status command) and [shutdown] (stop the loop). [load] is
    rejected — the store, not the client, owns the instance. Every
    request runs under a [serve.request] span and feeds the
    [prefdb_serve_*] metrics.

    With {!config.slow_query_ms} set, any query-shaped request
    ([query]/[qtrace]/[explain]/[plan]/[count]/[aggregate]) whose wall
    time crosses the threshold appends one {!Slowlog} record — query
    text, verdict, per-phase spans and the planner report with
    estimated vs. actual cardinalities — to [slow.jsonl] in the store
    directory (or {!config.slow_log}).

    Lifecycle files, all in the store directory: [serve.sock] (the
    listening socket), [serve.pid] (the server's pid, written on bind,
    removed on graceful shutdown), [serve.log] (stdout/stderr of a
    daemonized server — written by [prefdb start], not by this
    module). *)

val socket_path : string -> string
val pid_path : string -> string
val log_path : string -> string

val slow_log_path : string -> string
(** [DIR/slow.jsonl], the default slow-query log location. *)

type config = {
  request_timeout : float;
      (** seconds before a quiet accepted connection is dropped *)
  slow_query_ms : float option;
      (** capture queries slower than this many milliseconds *)
  slow_log : string option;
      (** slow-query log path; default [DIR/slow.jsonl] *)
}

val max_request_bytes : int
(** The longest request line the server accepts: 1 MiB. *)

val default_config : unit -> config
(** 10-second request timeout (or [PREFDB_REQUEST_TIMEOUT] when set
    and valid), no slow-query capture. *)

val env_request_timeout : unit -> float option
(** A valid [PREFDB_REQUEST_TIMEOUT] (a positive, finite number of
    seconds), if set. *)

val env_request_timeout_error : unit -> string option
(** A usage-error message when [PREFDB_REQUEST_TIMEOUT] is set but
    invalid — the CLI reports it and exits 124, as with
    [PREFDB_JOBS]. *)

val serve : ?config:config -> string -> (unit, string) result
(** [serve dir] opens the store in [dir] (replaying its log), binds
    the socket and blocks serving requests until a [shutdown] request
    arrives. Returns an error when the store cannot be opened or the
    socket cannot be bound (e.g. another server is live — {!ping}
    distinguishes a live server from a stale socket file). *)

(** {2 Client side} *)

val request : string -> string -> (string, string) result
(** [request dir cmd] connects, sends one text-framed command and
    returns its output ([Error] carries a server-reported error output
    or a connection failure). *)

val request_json : string -> string -> (Obs.Json.t, string) result
(** Like {!request} but over the JSON framing; returns the whole
    response object. *)

val ping : string -> bool
(** Whether a live server answers on [dir]'s socket. *)
