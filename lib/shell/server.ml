module IF = Dbio.Instance_format

let socket_path dir = Filename.concat dir "serve.sock"
let pid_path dir = Filename.concat dir "serve.pid"
let log_path dir = Filename.concat dir "serve.log"
let slow_log_path dir = Filename.concat dir "slow.jsonl"

(* --- configuration ------------------------------------------------------ *)

type config = {
  request_timeout : float;
      (* seconds before a quiet accepted connection is dropped *)
  slow_query_ms : float option;
      (* capture queries slower than this to the slow-query log *)
  slow_log : string option;
      (* override the log path; default [DIR/slow.jsonl] *)
}

let env_timeout_var = "PREFDB_REQUEST_TIMEOUT"

let parse_timeout s =
  match float_of_string_opt (String.trim s) with
  | Some t when Float.is_finite t && t > 0.0 -> Some t
  | Some _ | None -> None

(* An empty value reads as unset: the only way to "unset" a variable
   through [Unix.putenv] is to set it to "". *)
let env_timeout_value () =
  match Sys.getenv_opt env_timeout_var with
  | Some s when String.trim s <> "" -> Some s
  | _ -> None

let env_request_timeout () =
  Option.bind (env_timeout_value ()) parse_timeout

let env_request_timeout_error () =
  match env_timeout_value () with
  | None -> None
  | Some s -> (
    match parse_timeout s with
    | Some _ -> None
    | None -> (
      match float_of_string_opt (String.trim s) with
      | Some _ ->
        Some
          (Printf.sprintf
             "%s=%s: the request timeout must be a positive number of seconds"
             env_timeout_var (String.trim s))
      | None ->
        Some (Printf.sprintf "%s=%S is not a number" env_timeout_var s)))

let default_config () =
  {
    request_timeout = Option.value (env_request_timeout ()) ~default:10.0;
    slow_query_ms = None;
    slow_log = None;
  }

(* --- serve metrics ------------------------------------------------------ *)

let m_connections =
  Obs.Registry.counter ~help:"Connections accepted by the serve loop"
    "prefdb_serve_connections_total"

let m_conn_timeouts =
  Obs.Registry.counter
    ~help:"Connections dropped after a read or write timed out"
    "prefdb_serve_connection_timeouts_total"

let m_conn_errors =
  Obs.Registry.counter
    ~help:"Connections that failed mid-request (EPIPE, ECONNRESET, ...)"
    "prefdb_serve_connection_errors_total"

let m_bytes_in =
  Obs.Registry.counter ~help:"Request bytes read off accepted sockets"
    "prefdb_serve_bytes_in_total"

let m_bytes_out =
  Obs.Registry.counter ~help:"Response bytes written to accepted sockets"
    "prefdb_serve_bytes_out_total"

let m_in_flight =
  Obs.Registry.gauge ~help:"Requests currently being handled"
    "prefdb_serve_in_flight_requests"

let m_oversized =
  Obs.Registry.counter
    ~help:"Connections closed after a request line exceeded the size cap"
    "prefdb_serve_oversized_requests_total"

let m_slow_queries =
  Obs.Registry.counter ~help:"Queries captured by the slow-query log"
    "prefdb_serve_slow_queries_total"

(* Request counters are labelled by command word; unknown words
   collapse into "other" so a misbehaving client cannot grow the label
   set without bound. *)
let known_cmds =
  [
    "ping"; "shutdown"; "quit"; "exit"; "load"; "snapshot"; "metrics";
    "status"; "help"; "family"; "jobs"; "info"; "repairs"; "count"; "stats";
    "facts"; "clean"; "trace"; "query"; "qtrace"; "profile"; "explain";
    "plan"; "insert"; "delete"; "undo"; "aggregate"; "prefer"; "save";
    "denials"; "hyper";
  ]

let cmd_label cmd = if List.mem cmd known_cmds then cmd else "other"

let m_requests label =
  Obs.Registry.counter
    ~labels:[ ("cmd", label) ]
    ~help:"Requests handled, by command" "prefdb_serve_requests_total"

let m_request_errors label =
  Obs.Registry.counter
    ~labels:[ ("cmd", label) ]
    ~help:"Requests answered with an error, by command"
    "prefdb_serve_request_errors_total"

let m_request_seconds label =
  Obs.Registry.histogram
    ~labels:[ ("cmd", label) ]
    ~help:"Request handling latency, by command"
    "prefdb_serve_request_seconds"

(* Server-level totals for the [status] command; the serve loop is
   single-threaded, so plain refs suffice. *)
let server_started = ref (Unix.gettimeofday ())
let requests_served = ref 0
let request_errors = ref 0
let slow_logged = ref 0

let () =
  Obs.Registry.gauge_fn ~help:"Seconds since the serve loop started"
    "prefdb_serve_uptime_seconds" (fun () ->
      Unix.gettimeofday () -. !server_started)

(* --- wire framing ------------------------------------------------------- *)

(* Text responses are byte-count framed — outputs are multi-line, so a
   terminator would be ambiguous. JSON responses are one object per
   line, self-delimiting. *)
let text_frame ~ok out =
  Printf.sprintf "%s %d\n%s" (if ok then "ok" else "error")
    (String.length out) out

let json_frame ~ok ?(extra = []) out =
  Obs.Json.to_string
    (Obs.Json.Obj
       ([ ("ok", Obs.Json.Bool ok); ("output", Obs.Json.Str out) ] @ extra))
  ^ "\n"

let read_text_response ic =
  let header = input_line ic in
  match String.index_opt header ' ' with
  | None -> Error (Printf.sprintf "malformed response header %S" header)
  | Some sp -> (
    let status = String.sub header 0 sp in
    let len = String.sub header (sp + 1) (String.length header - sp - 1) in
    match (status, int_of_string_opt len) with
    | ("ok" | "error"), Some n when n >= 0 ->
      let body = really_input_string ic n in
      if status = "ok" then Ok body else Error body
    | _ -> Error (Printf.sprintf "malformed response header %S" header))

(* --- client side -------------------------------------------------------- *)

let with_connection dir k =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX (socket_path dir)) with
  | exception Unix.Unix_error (err, _, _) ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Error
      (Printf.sprintf "%s: cannot connect: %s" (socket_path dir)
         (Unix.error_message err))
  | () ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        let ic = Unix.in_channel_of_descr fd in
        let oc = Unix.out_channel_of_descr fd in
        match k ic oc with
        | v -> v
        | exception End_of_file -> Error "connection closed by server"
        | exception Sys_error m -> Error m)

let request dir cmd =
  with_connection dir (fun ic oc ->
      output_string oc cmd;
      output_char oc '\n';
      flush oc;
      read_text_response ic)

let request_json dir cmd =
  with_connection dir (fun ic oc ->
      output_string oc
        (Obs.Json.to_string (Obs.Json.Obj [ ("cmd", Obs.Json.Str cmd) ]));
      output_char oc '\n';
      flush oc;
      Obs.Json.of_string (input_line ic))

let ping dir = match request dir "ping" with Ok "pong" -> true | _ -> false

(* --- server-side socket I/O --------------------------------------------- *)

(* Accepted connections are driven through raw [Unix.read]/[write]
   rather than channels: the errno classification below is the whole
   point — a timed-out read (EAGAIN under SO_RCVTIMEO) and a client
   that vanished mid-response (EPIPE/ECONNRESET) are different
   conditions with different counters, and both must leave the accept
   loop alive.  Channels collapse all of it into [Sys_error]. *)

type io_failure = Timeout | Disconnected | Failed of string

let classify_errno = function
  | Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ETIMEDOUT -> Timeout
  | Unix.EPIPE | Unix.ECONNRESET | Unix.ESHUTDOWN -> Disconnected
  | err -> Failed (Unix.error_message err)

let count_io_failure = function
  | Timeout -> Obs.Metric.incr m_conn_timeouts
  | Disconnected | Failed _ -> Obs.Metric.incr m_conn_errors

type conn = {
  fd : Unix.file_descr;
  rbuf : Bytes.t;
  mutable rpos : int;  (* unconsumed bytes live at [rpos, rlen) *)
  mutable rlen : int;
}

let conn_of_fd fd = { fd; rbuf = Bytes.create 4096; rpos = 0; rlen = 0 }

let find_newline buf pos stop =
  let rec go i =
    if i >= stop then None else if Bytes.get buf i = '\n' then Some i else go (i + 1)
  in
  go pos

(* The longest request line the server buffers: far above any real
   command, and it bounds what a client streaming bytes without a
   newline can make the server hold. *)
let max_request_bytes = 1 lsl 20

(* One request line, newline-stripped.  [`Line] / [`Eof] (clean close
   at a line boundary) / [`Fail] (timeout or error; any partial line is
   abandoned with the connection) / [`Oversized json] (the line passed
   [max_request_bytes]; [json] when it opened with '{').  The whole line
   must arrive within [timeout] seconds of the call: SO_RCVTIMEO fires
   only on silence, so a client trickling bytes is cut off here, at the
   first refill past the deadline. *)
let read_line ~timeout conn =
  let deadline = Unix.gettimeofday () +. timeout in
  let acc = Buffer.create 128 in
  let oversized () =
    `Oversized (Buffer.length acc > 0 && Buffer.nth acc 0 = '{')
  in
  let rec go () =
    if conn.rpos >= conn.rlen then refill ()
    else
      match find_newline conn.rbuf conn.rpos conn.rlen with
      | Some i ->
        Buffer.add_subbytes acc conn.rbuf conn.rpos (i - conn.rpos);
        conn.rpos <- i + 1;
        if Buffer.length acc > max_request_bytes then oversized ()
        else `Line (Buffer.contents acc)
      | None ->
        Buffer.add_subbytes acc conn.rbuf conn.rpos (conn.rlen - conn.rpos);
        conn.rpos <- conn.rlen;
        if Buffer.length acc > max_request_bytes then oversized ()
        else refill ()
  and refill () =
    if Unix.gettimeofday () > deadline then `Fail Timeout else read_more ()
  and read_more () =
    match Unix.read conn.fd conn.rbuf 0 (Bytes.length conn.rbuf) with
    | 0 ->
      (* a trailing unterminated line still counts, matching what the
         channel layer's [input_line] accepted before *)
      if Buffer.length acc = 0 then `Eof else `Line (Buffer.contents acc)
    | n ->
      Obs.Metric.incr ~by:n m_bytes_in;
      conn.rpos <- 0;
      conn.rlen <- n;
      go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> refill ()
    | exception Unix.Unix_error (err, _, _) -> `Fail (classify_errno err)
  in
  go ()

let write_all fd s =
  let n = String.length s in
  let rec go written =
    if written >= n then Ok ()
    else
      match Unix.single_write_substring fd s written (n - written) with
      | k ->
        Obs.Metric.incr ~by:k m_bytes_out;
        go (written + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go written
      | exception Unix.Unix_error (err, _, _) -> Error (classify_errno err)
  in
  go 0

(* --- request handling --------------------------------------------------- *)

type reply = {
  ok : bool;
  output : string;
  stop : bool;
  bye : bool;
  extra : (string * Obs.Json.t) list;
      (* structured fields attached to the JSON framing only (the text
         framing already carries the same content rendered) *)
}

let reply ?(stop = false) ?(bye = false) ?(extra = []) ok output =
  { ok; output; stop; bye; extra }

let first_word line =
  let line = String.trim line in
  match String.index_opt line ' ' with
  | None -> String.lowercase_ascii line
  | Some i -> String.lowercase_ascii (String.sub line 0 i)

let rest_of line =
  let line = String.trim line in
  match String.index_opt line ' ' with
  | None -> ""
  | Some i -> String.trim (String.sub line i (String.length line - i))

let server_status store =
  let uptime = Unix.gettimeofday () -. !server_started in
  ( Printf.sprintf
      "up %.1fs\n\
       generation: %d\n\
       wal records: %d\n\
       requests: %d (%d error(s))\n\
       slow queries logged: %d"
      uptime
      (Dbio.Store.generation store)
      (Dbio.Store.wal_records store)
      !requests_served !request_errors !slow_logged,
    Obs.Json.Obj
      [
        ("uptime_s", Obs.Json.Float uptime);
        ("generation", Obs.Json.Int (Dbio.Store.generation store));
        ("wal_records", Obs.Json.Int (Dbio.Store.wal_records store));
        ("requests", Obs.Json.Int !requests_served);
        ("request_errors", Obs.Json.Int !request_errors);
        ("slow_queries", Obs.Json.Int !slow_logged);
      ] )

(* The server-level commands sit outside the session language: liveness,
   checkpointing, lifecycle, metrics and server status are the store's
   business, not the interpreter's. [load] is rejected — in serve mode
   the store owns the instance, and swapping it out from under the log
   would desynchronize snapshot and journal. [json] is the request's
   framing: structured fields that cost work are built only for it. *)
let handle ~json store session line =
  match first_word line with
  | "ping" -> (session, reply true "pong")
  | "shutdown" -> (session, reply true "shutting down" ~stop:true)
  | "quit" | "exit" -> (session, reply true "bye" ~bye:true)
  | "metrics" ->
    (* text framing carries the Prometheus exposition; the JSON framing
       additionally gets the structured form *)
    ( session,
      reply true
        (Obs.Registry.render ())
        ~extra:(if json then [ ("metrics", Obs.Registry.to_json ()) ] else []) )
  | "status" when rest_of line = "" ->
    let text, json = server_status store in
    (session, reply true text ~extra:[ ("status", json) ])
  | "load" ->
    ( session,
      reply false
        "error: load is disabled in serve mode (the store owns the instance)"
    )
  | "snapshot" -> (
    match Session.loaded session with
    | None -> (session, reply false "error: no instance loaded")
    | Some spec -> (
      match Dbio.Store.checkpoint store spec with
      | Ok () ->
        (* a recovered engine's history reaches back only to the
           snapshot; drop the live history too so both sides agree the
           checkpoint is the undo horizon *)
        Session.drop_undo_history session;
        ( session,
          reply true
            (Printf.sprintf
               "snapshot written to %s (wal truncated; undo history reset)"
               (Dbio.Store.snapshot_path (Dbio.Store.dir store))) )
      | Error e -> (session, reply false ("error: " ^ e))))
  | _ ->
    let session, out = Session.exec session line in
    let ok = not (Session.is_error_output out) in
    (* JSON-framed [plan]/[explain] responses also carry the physical
       plan as a structured "plan" field, so JSON clients need not parse
       the rendered tree (it re-runs the planner, so text-framed requests
       skip it) *)
    let extra =
      match first_word line with
      | ("plan" | "explain") when ok && json -> (
        match Session.plan_json session (rest_of line) with
        | Ok j -> [ ("plan", j) ]
        | Error _ -> [])
      | _ -> []
    in
    (session, reply ~extra ok out)

(* --- slow-query capture ------------------------------------------------- *)

(* Commands whose slow executions are worth a plan post-mortem. *)
let slow_eligible cmd =
  List.mem cmd [ "query"; "qtrace"; "explain"; "plan"; "count"; "aggregate" ]

let log_slow config ~dir ~session ~cmd ~query ~wall ~events (r : reply) =
  let path =
    match config.slow_log with Some p -> p | None -> slow_log_path dir
  in
  match
    Slowlog.append ~path
      (Slowlog.record session ~cmd ~query ~wall ~events r.output)
  with
  | Ok () ->
    incr slow_logged;
    Obs.Metric.incr m_slow_queries
  | Error _ -> ()

let handle_request config ~dir store session raw =
  let json = String.length raw > 0 && raw.[0] = '{' in
  let line =
    if not json then Ok raw
    else
      match Obs.Json.of_string raw with
      | Error e -> Error (Printf.sprintf "error: bad request json: %s" e)
      | Ok j -> (
        match Obs.Json.member "cmd" j with
        | Some (Obs.Json.Str cmd) -> Ok cmd
        | Some _ -> Error "error: \"cmd\" must be a string"
        | None -> Error "error: request object needs a \"cmd\" field")
  in
  match line with
  | Error msg -> (session, reply false msg, json)
  | Ok line ->
    let cmd = first_word line in
    let label = cmd_label cmd in
    let capture =
      match config.slow_query_ms with
      | Some _ -> slow_eligible cmd
      | None -> false
    in
    Obs.Metric.add_gauge m_in_flight 1.0;
    let t0 = Unix.gettimeofday () in
    let run () =
      Obs.Span.with_span "serve.request"
        ~args:[ ("cmd", Obs.Event.Str cmd) ]
        (fun () -> handle ~json store session line)
    in
    let (session, r), events =
      Fun.protect
        ~finally:(fun () -> Obs.Metric.add_gauge m_in_flight (-1.0))
        (fun () -> if capture then Slowlog.capture run else (run (), []))
    in
    let wall = Unix.gettimeofday () -. t0 in
    incr requests_served;
    if not r.ok then incr request_errors;
    Obs.Metric.incr (m_requests label);
    if not r.ok then Obs.Metric.incr (m_request_errors label);
    Obs.Metric.observe (m_request_seconds label) wall;
    (match config.slow_query_ms with
    | Some threshold_ms when capture && Slowlog.crosses ~threshold_ms wall ->
      log_slow config ~dir ~session ~cmd ~query:(rest_of line) ~wall ~events r
    | _ -> ());
    (session, r, json)

(* --- the serve loop ----------------------------------------------------- *)

let write_pid_file dir =
  Out_channel.with_open_text (pid_path dir) (fun oc ->
      Printf.fprintf oc "%d\n" (Unix.getpid ()))

let remove_if_exists path = try Sys.remove path with Sys_error _ -> ()

(* Connections are served one at a time, so a client that connects and
   goes quiet must not wedge the loop: every read and write on the
   accepted socket carries [config.request_timeout] seconds, and so does
   each whole request line, after which the connection is dropped
   (counted as a timeout) and the next client — including a [shutdown]
   — is accepted.  A client that
   disconnects mid-response (EPIPE/ECONNRESET) likewise only kills its
   own connection.  Well-behaved clients open a connection per request
   and are far inside the budget. *)
let serve_connection config ~dir store session_ref stop_ref fd =
  (try
     Unix.setsockopt_float fd Unix.SO_RCVTIMEO config.request_timeout;
     Unix.setsockopt_float fd Unix.SO_SNDTIMEO config.request_timeout
   with Unix.Unix_error _ -> ());
  Obs.Metric.incr m_connections;
  let conn = conn_of_fd fd in
  let rec loop () =
    match read_line ~timeout:config.request_timeout conn with
    | `Eof -> ()
    | `Fail failure -> count_io_failure failure
    | `Oversized json ->
      (* the rest of the line is never read: answer and drop the
         connection *)
      Obs.Metric.incr m_oversized;
      let msg =
        Printf.sprintf "error: request exceeds %d bytes" max_request_bytes
      in
      let frame =
        if json then json_frame ~ok:false msg else text_frame ~ok:false msg
      in
      (match write_all fd frame with
      | Ok () -> ()
      | Error failure -> count_io_failure failure)
    | `Line raw ->
      let session, r, json =
        handle_request config ~dir store !session_ref raw
      in
      session_ref := session;
      let frame =
        if json then json_frame ~ok:r.ok ~extra:r.extra r.output
        else text_frame ~ok:r.ok r.output
      in
      (match write_all fd frame with
      | Ok () -> if r.stop then stop_ref := true else if not r.bye then loop ()
      | Error failure ->
        count_io_failure failure;
        (* a response that could not be delivered must still honor a
           shutdown — the client's intent reached us *)
        if r.stop then stop_ref := true)
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    loop

let entry_of_event = function
  | Session.Updated ops -> Dbio.Wal.Batch ops
  | Session.Undone -> Dbio.Wal.Undo
  | Session.Preferred p -> Dbio.Wal.Prefer p

let bind_socket dir =
  let path = socket_path dir in
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match
    if Sys.file_exists path then Unix.unlink path;
    Unix.bind sock (Unix.ADDR_UNIX path);
    Unix.listen sock 16
  with
  | () -> Ok sock
  | exception Unix.Unix_error (err, fn, _) ->
    (try Unix.close sock with Unix.Unix_error _ -> ());
    Error (Printf.sprintf "%s: %s: %s" path fn (Unix.error_message err))

let serve ?config dir =
  let config = match config with Some c -> c | None -> default_config () in
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  (* stale socket file vs live server: only a live one answers ping *)
  if Sys.file_exists (socket_path dir) && ping dir then
    Error (Printf.sprintf "%s: a server is already running" dir)
  else
    match Dbio.Store.open_ dir with
    | Error e -> Error e
    | Ok store -> (
      match bind_socket dir with
      | Error e ->
        Dbio.Store.close store;
        Error e
      | Ok sock ->
        write_pid_file dir;
        server_started := Unix.gettimeofday ();
        requests_served := 0;
        request_errors := 0;
        slow_logged := 0;
        let session =
          Session.set_observer
            (Session.of_spec ~engine:(Dbio.Store.engine store)
               (Dbio.Store.spec store))
            (fun ev -> Dbio.Store.log store (entry_of_event ev))
        in
        let session_ref = ref session in
        let stop_ref = ref false in
        while not !stop_ref do
          match Unix.accept sock with
          | fd, _ -> serve_connection config ~dir store session_ref stop_ref fd
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        done;
        (try Unix.close sock with Unix.Unix_error _ -> ());
        remove_if_exists (socket_path dir);
        remove_if_exists (pid_path dir);
        Dbio.Store.close store;
        Ok ())
