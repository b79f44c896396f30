(* prefdb — preference-driven querying of inconsistent relational data.

   A command-line front end to the library: load an instance file (see
   lib/dbio/instance_format.mli for the format), inspect its conflicts,
   enumerate or check preferred repairs, clean it, and compute preferred
   consistent query answers and aggregate ranges. Every one-shot command
   with a shell twin loads the file into a {!Shell.Session} and runs the
   twin, so the CLI, the shell and serve mode print the same text. *)

open Cmdliner
module IF = Dbio.Instance_format
module Family = Core.Family
module Session = Shell.Session

(* --- shared helpers ------------------------------------------------------- *)

let load path =
  match IF.parse_file path with
  | Ok spec -> Ok spec
  | Error e -> Error (Printf.sprintf "%s: %s" path e)

let fail e =
  Format.eprintf "error: %s@." e;
  1

(* A session output goes to stdout, or — when it reports an error — to
   stderr with exit code 1. *)
let print_output out =
  if Session.is_error_output out then begin
    prerr_endline out;
    1
  end
  else begin
    if out <> "" then print_endline out;
    0
  end

(* Load FILE into a fresh session, select the family, and hand the
   session to [k]. *)
let with_session ?family path k =
  let st, msg = Session.exec Session.initial ("load " ^ path) in
  if Session.is_error_output msg then print_output msg
  else
    match family with
    | None -> k st
    | Some f -> k (fst (Session.exec st ("family " ^ Family.name_to_string f)))

(* Run the command [lines] in order, stopping at the first error. *)
let run_session ?family path lines =
  with_session ?family path (fun st ->
      let rec go st = function
        | [] -> 0
        | line :: rest ->
          let st, out = Session.exec st line in
          if print_output out = 0 then go st rest else 1
      in
      go st lines)

(* --- tracing ---------------------------------------------------------------- *)

let write_trace path events =
  let data =
    if Filename.check_suffix path ".jsonl" then Obs.Export.jsonl_string events
    else Obs.Export.chrome_string events
  in
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc data)

(* Collect the run's spans into a memory sink and write them to [path]
   on the way out (also on error paths: the stream is balanced anyway). *)
let with_trace trace_out f =
  match trace_out with
  | None -> f ()
  | Some path ->
    let buf = Obs.Sink.Memory.create () in
    Obs.Span.set_sink (Some (Obs.Sink.Memory.sink buf));
    let finish () =
      Obs.Span.set_sink None;
      write_trace path (Obs.Sink.Memory.events buf);
      if Obs.Sink.Memory.dropped buf > 0 then
        Format.eprintf "trace: %d event(s) dropped (buffer full)@."
          (Obs.Sink.Memory.dropped buf)
    in
    (match f () with
    | code ->
      finish ();
      code
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      finish ();
      Printexc.raise_with_backtrace e bt)

(* --- arguments ------------------------------------------------------------- *)

(* Every subcommand accepts -j/--jobs; the pool width is fixed before
   the command body runs. [with_jobs run] relies on cmdliner applying
   term arguments left to right: the flag's value is consumed (and the
   width set) before the remaining arguments reach [run]. *)
let jobs_arg =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | _ ->
      Error (`Msg (Printf.sprintf "invalid jobs count %S (expected N >= 1)" s))
  in
  Arg.(value & opt (some (conv (parse, Format.pp_print_int))) None
       & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:
             "Evaluate repair/CQA kernels with $(docv) domains (default: the \
              PREFDB_JOBS environment variable, else the host's recommended \
              domain count). 1 disables parallelism.")

let with_jobs run jobs =
  (match jobs with Some n -> Core.Pool.set_jobs n | None -> ());
  run

let trace_out_arg =
  Arg.(value & opt (some string) None
       & info [ "trace-out" ] ~docv:"FILE"
           ~doc:
             "Write a machine-readable trace of the run to $(docv): Chrome \
              trace-event JSON (open in chrome://tracing or Perfetto), or \
              one JSON event per line when $(docv) ends in .jsonl.")

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
         ~doc:"Instance file (see the repository README for the format).")

(* [default] is the family when -f is absent; [None] leaves it to the
   session: c, or rep when the instance declares denials. *)
let family_arg default =
  let parse s =
    match Family.name_of_string s with
    | Some f -> Ok f
    | None ->
      Error
        (`Msg (Printf.sprintf "unknown family %S (use rep|l|s|g|c|pareto|global)" s))
  in
  let print ppf f = Family.pp_name ppf f in
  Arg.(value & opt (some (conv (parse, print))) default
       & info [ "f"; "family" ] ~docv:"FAMILY"
           ~doc:
             (Printf.sprintf
                "Preferred-repair family: rep, l, s (or pareto), g (or global) \
                 or c; on an instance declaring denial constraints only rep, \
                 pareto and global (default %s)."
                (match default with
                | None -> "c, or rep when the instance declares denials"
                | Some f -> String.lowercase_ascii (Family.name_to_string f))))

let limit_arg =
  Arg.(value & opt int 20
       & info [ "limit" ] ~docv:"N" ~doc:"Print at most $(docv) repairs.")

(* --- info / stats / repairs ---------------------------------------------------- *)

let info_cmd =
  let run path = run_session path [ "info" ] in
  Cmd.v
    (Cmd.info "info"
       ~doc:"Show schema, constraints, candidate keys, conflicts and preferences.")
    Term.(const (with_jobs run) $ jobs_arg $ file_arg)

let stats_cmd =
  let run path family trace_out =
    with_trace trace_out @@ fun () -> run_session ?family path [ "stats" ]
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Inconsistency summary: conflicts, components, repair counts and \
          tuple fates under the family's preferences.")
    Term.(const (with_jobs run) $ jobs_arg $ file_arg $ family_arg None $ trace_out_arg)

(* The repair commands take the default family as a parameter: the
   [hyper] group re-exports them with rep as the default. *)
let repairs_cmd default =
  let run path family limit =
    run_session ?family path [ Printf.sprintf "repairs %d" limit ]
  in
  Cmd.v
    (Cmd.info "repairs"
       ~doc:"Enumerate the preferred repairs of the given family.")
    Term.(const (with_jobs run) $ jobs_arg $ file_arg $ family_arg default $ limit_arg)

(* --- check ------------------------------------------------------------------ *)

let check_cmd default =
  let candidate_arg =
    Arg.(required & pos 1 (some file) None
         & info [] ~docv:"CANDIDATE"
             ~doc:"Instance file holding the candidate repair (same schema).")
  in
  let run path candidate family =
    with_session ?family path (fun st ->
        match load candidate with
        | Error e -> fail e
        | Ok cand -> (
          match Session.check st cand.IF.relation with
          | Error e -> fail e
          | Ok (label, ok) ->
            Format.printf "%s-repair check: %s@." label (if ok then "YES" else "NO");
            if ok then 0 else 2))
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "X-repair checking: is the candidate a preferred repair of the \
          family? Exits 0 for yes, 2 for no.")
    Term.(const (with_jobs run) $ jobs_arg $ file_arg $ candidate_arg $ family_arg default)

(* --- clean / count ------------------------------------------------------------ *)

let clean_cmd =
  let trace_arg =
    Arg.(value & flag
         & info [ "trace" ] ~doc:"Show each Algorithm 1 step and its choices.")
  in
  let run path trace trace_out =
    with_trace trace_out @@ fun () ->
    run_session path [ (if trace then "trace" else "clean") ]
  in
  Cmd.v
    (Cmd.info "clean"
       ~doc:
         "Clean the instance with Algorithm 1 under the declared \
          preferences (keeps one common repair).")
    Term.(const (with_jobs run) $ jobs_arg $ file_arg $ trace_arg $ trace_out_arg)

let count_cmd default =
  let run path family trace_out =
    with_trace trace_out @@ fun () -> run_session ?family path [ "count" ]
  in
  Cmd.v
    (Cmd.info "count"
       ~doc:
         "Count the preferred repairs without enumerating them \
          (component-factorized; fast whenever conflict components are \
          small).")
    Term.(const (with_jobs run) $ jobs_arg $ file_arg $ family_arg default $ trace_out_arg)

(* --- query ------------------------------------------------------------------ *)

let slow_query_ms_arg =
  let parse s =
    match float_of_string_opt s with
    | Some t when Float.is_finite t && t >= 0.0 -> Ok t
    | _ ->
      Error
        (`Msg
           (Printf.sprintf
              "invalid threshold %S (expected a number of milliseconds >= 0)" s))
  in
  Arg.(value & opt (some (conv (parse, Format.pp_print_float))) None
       & info [ "slow-query-ms" ] ~docv:"MS"
           ~doc:
             "Capture any query slower than $(docv) milliseconds as one \
              JSONL record (query text, verdict, wall time, per-phase \
              spans, and the planner report with estimated vs. actual \
              cardinalities) in the slow-query log. 0 captures \
              everything.")

let slow_log_arg =
  Arg.(value & opt (some string) None
       & info [ "slow-query-log" ] ~docv:"FILE"
           ~doc:
             "Where --slow-query-ms appends its records (default: \
              slow.jsonl under the store directory when serving, \
              ./slow.jsonl otherwise).")

let query_cmd default =
  let query_arg =
    Arg.(required & pos 1 (some string) None
         & info [] ~docv:"QUERY" ~doc:"First-order query text.")
  in
  let trace_arg =
    Arg.(value & flag
         & info [ "trace" ]
             ~doc:
               "Also report what the component decomposition did: \
                per-component repair counts, cache traffic, combinations \
                streamed, early exits.")
  in
  let run path family qtext trace slow_ms slow_log trace_out =
    with_trace trace_out @@ fun () ->
    let cmd = if trace then "qtrace" else "query" in
    with_session ?family path (fun st ->
        let t0 = Unix.gettimeofday () in
        let exec () = snd (Session.exec st (cmd ^ " " ^ qtext)) in
        let output, events =
          match slow_ms with
          | None -> (exec (), [])
          | Some _ -> Shell.Slowlog.capture exec
        in
        let wall = Unix.gettimeofday () -. t0 in
        let code = print_output output in
        (match slow_ms with
        | Some threshold_ms
          when code = 0 && Shell.Slowlog.crosses ~threshold_ms wall -> (
          let log = Option.value slow_log ~default:"slow.jsonl" in
          match
            Shell.Slowlog.append ~path:log
              (Shell.Slowlog.record st ~cmd ~query:qtext ~wall ~events output)
          with
          | Ok () -> Format.eprintf "slow query logged to %s@." log
          | Error e -> Format.eprintf "slow-query log: %s@." e)
        | _ -> ());
        code)
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:
         "Compute the preferred consistent answer to a closed query, or \
          the certain bindings of an open one. Answers are computed \
          through the conflict-component decomposition.")
    Term.(
      const (with_jobs run) $ jobs_arg $ file_arg $ family_arg default $ query_arg
      $ trace_arg $ slow_query_ms_arg $ slow_log_arg $ trace_out_arg)

(* --- facts ------------------------------------------------------------------- *)

let facts_cmd =
  let run path family = run_session ?family path [ "facts" ] in
  Cmd.v
    (Cmd.info "facts"
       ~doc:
         "Classify every tuple as certain, disputed or excluded under the \
          family's preferred repairs (component-factorized).")
    Term.(const (with_jobs run) $ jobs_arg $ file_arg $ family_arg None)

(* --- explain / plan ----------------------------------------------------------- *)

let explain_cmd =
  let query_arg =
    Arg.(required & pos 1 (some string) None
         & info [] ~docv:"QUERY" ~doc:"Closed first-order query text.")
  in
  let run path family qtext = run_session ?family path [ "explain " ^ qtext ] in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Answer a closed query and show witness repairs supporting and \
          refuting it, prefixed with the physical plan the per-repair \
          checks execute (cost-based join order, access paths, estimated \
          vs. actual cardinalities).")
    Term.(const (with_jobs run) $ jobs_arg $ file_arg $ family_arg None $ query_arg)

let plan_cmd =
  let query_arg =
    Arg.(required & pos 1 (some string) None
         & info [] ~docv:"QUERY" ~doc:"First-order query text.")
  in
  let json_arg =
    Arg.(value & flag
         & info [ "json" ] ~doc:"Emit the report as one JSON object.")
  in
  let run path qtext json =
    if not json then run_session path [ "plan " ^ qtext ]
    else
      with_session path (fun st ->
          match Session.plan_json st qtext with
          | Ok j ->
            print_endline (Obs.Json.to_string j);
            0
          | Error e -> fail e)
  in
  Cmd.v
    (Cmd.info "plan"
       ~doc:
         "Show the cost-based physical plan for a query over the instance \
          (not its repairs): chosen join order, access paths (index, range \
          and merge scans), estimated vs. actual cardinalities — or the \
          fallback reason when the query is outside the compilable \
          fragment.")
    Term.(const (with_jobs run) $ jobs_arg $ file_arg $ query_arg $ json_arg)

(* --- status ------------------------------------------------------------------- *)

let status_cmd =
  let tuple_arg =
    Arg.(required & pos 1 (some string) None
         & info [] ~docv:"TUPLE"
             ~doc:
               "The tuple's values, space-separated, as on a 'tuple' line \
                of the instance file (quote the whole argument).")
  in
  let run path family tuple_text =
    run_session ?family path [ "status " ^ tuple_text ]
  in
  Cmd.v
    (Cmd.info "status"
       ~doc:
         "Show a tuple's conflicts, its domination situation and whether \
          the preferred repairs keep it.")
    Term.(const (with_jobs run) $ jobs_arg $ file_arg $ family_arg None $ tuple_arg)

(* --- aggregate ---------------------------------------------------------------- *)

let aggregate_cmd =
  let agg_arg =
    Arg.(required & pos 1 (some string) None
         & info [] ~docv:"AGG"
             ~doc:"Aggregate: count, sum:ATTR, min:ATTR or max:ATTR.")
  in
  let run path family agg_text =
    run_session ?family path [ "aggregate " ^ agg_text ]
  in
  Cmd.v
    (Cmd.info "aggregate"
       ~doc:"Range-consistent answer to a scalar aggregation query.")
    Term.(const (with_jobs run) $ jobs_arg $ file_arg $ family_arg None $ agg_arg)

(* --- update ------------------------------------------------------------------ *)

let update_cmd =
  let insert_arg =
    Arg.(value & opt_all string []
         & info [ "i"; "insert" ] ~docv:"VALUES"
             ~doc:
               "Insert a tuple (values as on a 'tuple' line of the instance \
                file; quote the whole argument). Repeatable.")
  in
  let delete_arg =
    Arg.(value & opt_all string []
         & info [ "d"; "delete" ] ~docv:"VALUES"
             ~doc:"Delete a tuple. Repeatable; deletions run before insertions.")
  in
  let save_arg =
    Arg.(value & opt (some string) None
         & info [ "save" ] ~docv:"OUT"
             ~doc:"Write the updated instance (with its preferences) to $(docv).")
  in
  let run path family inserts deletes save trace_out =
    with_trace trace_out @@ fun () ->
    if inserts = [] && deletes = [] then
      fail "nothing to do (use --insert/--delete)"
    else
      run_session ?family path
        (List.map (( ^ ) "delete ") deletes
        @ List.map (( ^ ) "insert ") inserts
        @ [ "count" ]
        @ match save with None -> [] | Some out -> [ "save " ^ out ])
  in
  Cmd.v
    (Cmd.info "update"
       ~doc:
         "Apply tuple insertions and deletions one at a time through the \
          incremental engine — the conflict graph is maintained by delta, \
          only the components an update touches are re-decomposed, and \
          each update's work report shows what was dirtied, evicted and \
          retained — then count the preferred repairs.")
    Term.(
      const (with_jobs run) $ jobs_arg $ file_arg $ family_arg None $ insert_arg
      $ delete_arg $ save_arg $ trace_out_arg)

(* --- shell ------------------------------------------------------------------- *)

let shell_cmd =
  let file_opt =
    Arg.(value & pos 0 (some file) None
         & info [] ~docv:"FILE" ~doc:"Instance file to load on startup.")
  in
  let run path trace_out =
    with_trace trace_out @@ fun () ->
    (* scripted runs (piped stdin) must fail loudly: remember whether any
       command errored and exit non-zero at EOF. An interactive session
       keeps exiting 0 — errors were already shown to the human. *)
    let interactive = Unix.isatty Unix.stdin in
    let errored = ref false in
    let note output =
      if Shell.Session.is_error_output output then errored := true
    in
    let state =
      match path with
      | None -> Shell.Session.initial
      | Some path ->
        let st, msg = Shell.Session.exec Shell.Session.initial ("load " ^ path) in
        print_endline msg;
        note msg;
        st
    in
    print_endline "prefdb shell — 'help' lists commands, 'quit' leaves.";
    let exit_code () = if (not interactive) && !errored then 1 else 0 in
    let rec loop state =
      print_string "prefdb> ";
      match In_channel.input_line In_channel.stdin with
      | None -> exit_code ()
      | Some line -> (
        match String.lowercase_ascii (String.trim line) with
        | "quit" | "exit" -> exit_code ()
        | _ ->
          let state, output = Shell.Session.exec state line in
          if output <> "" then print_endline output;
          note output;
          loop state)
    in
    loop state
  in
  Cmd.v
    (Cmd.info "shell" ~doc:"Interactive session over an instance file.")
    Term.(const (with_jobs run) $ jobs_arg $ file_opt $ trace_out_arg)

(* --- profile ------------------------------------------------------------------ *)

let profile_cmd =
  let query_arg =
    Arg.(required & pos 1 (some string) None
         & info [] ~docv:"QUERY" ~doc:"First-order query text.")
  in
  let run path family qtext trace_out =
    with_trace trace_out @@ fun () ->
    run_session ?family path [ "profile " ^ qtext ]
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Answer a query and print a hierarchical time profile of its \
          evaluation: per-component repair enumeration and the CQA route \
          taken (ground clause engine, deviation scan or full product), \
          with counter deltas attached to each span, and the wall time \
          the spans cover.")
    Term.(const (with_jobs run) $ jobs_arg $ file_arg $ family_arg None $ query_arg $ trace_out_arg)

(* --- validate-trace ----------------------------------------------------------- *)

let validate_trace_cmd =
  let trace_file_arg =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"TRACE"
             ~doc:"Trace file written by --trace-out or 'profile'.")
  in
  let run path =
    match In_channel.with_open_text path In_channel.input_all with
    | exception Sys_error m ->
      Format.eprintf "error: %s@." m;
      1
    | text -> (
      let result =
        if Filename.check_suffix path ".jsonl" then
          Obs.Export.validate_jsonl text
        else
          match Obs.Json.of_string text with
          | Error e -> Error e
          | Ok j -> Obs.Export.validate j
      in
      match result with
      | Ok n ->
        Format.printf
          "%s: valid (%d event(s); timestamps monotone, spans balanced)@."
          path n;
        0
      | Error e ->
        Format.eprintf "%s: INVALID: %s@." path e;
        1)
  in
  Cmd.v
    (Cmd.info "validate-trace"
       ~doc:
         "Check a trace file's invariants: well-formed JSON, monotone \
          non-decreasing timestamps and balanced begin/end span pairs with \
          matching names. Exits non-zero on violation.")
    Term.(const (with_jobs run) $ jobs_arg $ trace_file_arg)

(* --- the durable store: init + serve lifecycle -------------------------------- *)

module Server = Shell.Server

let dir_arg =
  Arg.(value & opt string ".prefdb"
       & info [ "dir" ] ~docv:"DIR"
           ~doc:"Store directory (snapshot, write-ahead log, server files).")

let request_timeout_arg =
  let parse s =
    match float_of_string_opt s with
    | Some t when Float.is_finite t && t > 0.0 -> Ok t
    | _ ->
      Error
        (`Msg
           (Printf.sprintf
              "invalid timeout %S (expected a positive number of seconds)" s))
  in
  Arg.(value & opt (some (conv (parse, Format.pp_print_float))) None
       & info [ "request-timeout" ] ~docv:"SEC"
           ~doc:
             "Drop an accepted connection whose reads or writes stall for \
              $(docv) seconds (default: the PREFDB_REQUEST_TIMEOUT \
              environment variable, else 10).")

(* The served config: defaults (including PREFDB_REQUEST_TIMEOUT),
   overridden by whichever flags were given. *)
let serve_config timeout slow_ms slow_log =
  let c = Server.default_config () in
  {
    Server.request_timeout =
      Option.value timeout ~default:c.Server.request_timeout;
    slow_query_ms =
      (match slow_ms with Some _ -> slow_ms | None -> c.Server.slow_query_ms);
    slow_log =
      (match slow_log with Some _ -> slow_log | None -> c.Server.slow_log);
  }

let init_cmd =
  let run file dir =
    match load file with
    | Error e ->
      Format.eprintf "error: %s@." e;
      1
    | Ok spec -> (
      match Dbio.Store.init dir spec with
      | Error e ->
        Format.eprintf "error: %s@." e;
        1
      | Ok () ->
        Format.printf "initialized %s: %d tuple(s), %d fd(s), %d preference(s)%s@."
          dir
          (Relational.Relation.cardinality spec.IF.relation)
          (List.length spec.IF.fds)
          (List.length spec.IF.prefs)
          (match spec.IF.denials with
          | [] -> ""
          | ds -> Printf.sprintf ", %d denial(s)" (List.length ds));
        0)
  in
  Cmd.v
    (Cmd.info "init"
       ~doc:
         "Create a durable store from an instance file: a binary snapshot \
          (versioned, checksummed, loaded without re-parsing) plus an empty \
          write-ahead log. The store is what 'serve' processes own.")
    Term.(const (with_jobs run) $ jobs_arg $ file_arg $ dir_arg)

let serve_start_cmd =
  let run dir timeout slow_ms slow_log =
    let config = serve_config timeout slow_ms slow_log in
    if not (Sys.file_exists (Dbio.Store.snapshot_path dir)) then begin
      Format.eprintf "error: %s: no store (run 'prefdb init' first)@." dir;
      1
    end
    else if Server.ping dir then begin
      Format.eprintf "error: %s: a server is already running@." dir;
      1
    end
    else
      match Unix.fork () with
      | 0 ->
        (* the daemon: its own session, stdio to the log file *)
        ignore (Unix.setsid ());
        let log =
          Unix.openfile (Server.log_path dir)
            [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
            0o644
        in
        let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
        Unix.dup2 devnull Unix.stdin;
        Unix.dup2 log Unix.stdout;
        Unix.dup2 log Unix.stderr;
        Unix.close devnull;
        Unix.close log;
        (match Server.serve ~config dir with
        | Ok () -> Stdlib.exit 0
        | Error e ->
          prerr_endline ("error: " ^ e);
          Stdlib.exit 1)
      | pid ->
        let rec wait n =
          if Server.ping dir then begin
            Format.printf "server started (pid %d, socket %s)@." pid
              (Server.socket_path dir);
            0
          end
          else if n = 0 then begin
            Format.eprintf "error: server did not come up (see %s)@."
              (Server.log_path dir);
            1
          end
          else begin
            Unix.sleepf 0.1;
            wait (n - 1)
          end
        in
        wait 100
  in
  Cmd.v
    (Cmd.info "start"
       ~doc:
         "Start a server in the background (fork + setsid, stdio to \
          serve.log) and wait until it answers on the socket.")
    Term.(
      const (with_jobs run) $ jobs_arg $ dir_arg $ request_timeout_arg
      $ slow_query_ms_arg $ slow_log_arg)

let read_pid dir =
  match In_channel.with_open_text (Server.pid_path dir) In_channel.input_all with
  | s -> int_of_string_opt (String.trim s)
  | exception Sys_error _ -> None

let pid_alive pid =
  match Unix.kill pid 0 with
  | () -> true
  | exception Unix.Unix_error (_, _, _) -> false

let serve_stop_cmd =
  let run dir =
    let pid = read_pid dir in
    match Server.request dir "shutdown" with
    | Error e ->
      Format.eprintf "error: %s@." e;
      1
    | Ok _ ->
      let gone () =
        match pid with
        | Some p -> not (pid_alive p)
        | None -> not (Sys.file_exists (Server.socket_path dir))
      in
      let rec wait n =
        if gone () then begin
          Format.printf "server stopped@.";
          0
        end
        else if n = 0 then begin
          Format.eprintf "error: server acknowledged shutdown but did not exit@.";
          1
        end
        else begin
          Unix.sleepf 0.1;
          wait (n - 1)
        end
      in
      wait 100
  in
  Cmd.v
    (Cmd.info "stop"
       ~doc:"Ask the server to shut down and wait until its process exits.")
    Term.(const (with_jobs run) $ jobs_arg $ dir_arg)

let serve_status_cmd =
  let run dir =
    let file_size path =
      match Unix.stat path with
      | st -> Some st.Unix.st_size
      | exception Unix.Unix_error _ -> None
    in
    (match file_size (Dbio.Store.snapshot_path dir) with
    | Some n -> Format.printf "snapshot: %d byte(s)@." n
    | None -> Format.printf "snapshot: missing@.");
    (match file_size (Dbio.Store.wal_path dir) with
    | Some n -> Format.printf "wal:      %d byte(s)@." n
    | None -> Format.printf "wal:      missing@.");
    let pid = read_pid dir in
    let live = Server.ping dir in
    (match (pid, live) with
    | Some p, true -> Format.printf "server:   running (pid %d)@." p
    | None, true -> Format.printf "server:   running (no pid file)@."
    | Some p, false when pid_alive p ->
      Format.printf "server:   pid %d alive but not answering@." p
    | _, false -> Format.printf "server:   not running@.");
    (* a live server also reports its own view: uptime, generation,
       request totals *)
    if live then (
      match Server.request dir "status" with
      | Ok out -> List.iter (Format.printf "  %s@.") (String.split_on_char '\n' out)
      | Error _ -> ());
    if live then 0 else 3
  in
  Cmd.v
    (Cmd.info "status"
       ~doc:
         "Report the store's files and whether a server answers on the \
          socket. Exits 0 when a server is live, 3 otherwise.")
    Term.(const (with_jobs run) $ jobs_arg $ dir_arg)

let serve_call_cmd =
  let cmd_arg =
    Arg.(non_empty & pos_all string [] & info [] ~docv:"CMD"
           ~doc:"Command words, joined with spaces (shell session language).")
  in
  let json_arg =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Use the JSON framing and print the raw response object.")
  in
  let run dir json words =
    let cmd = String.concat " " words in
    if json then (
      match Server.request_json dir cmd with
      | Ok resp ->
        print_endline (Obs.Json.to_string resp);
        (match Obs.Json.member "ok" resp with
        | Some (Obs.Json.Bool true) -> 0
        | _ -> 1)
      | Error e ->
        Format.eprintf "error: %s@." e;
        1)
    else
      match Server.request dir cmd with
      | Ok out ->
        if out <> "" then print_endline out;
        0
      | Error e ->
        (* a session's error reply already reads [error: ...]; a
           connection failure does not *)
        if Session.is_error_output e then Format.eprintf "%s@." e
        else Format.eprintf "error: %s@." e;
        1
  in
  Cmd.v
    (Cmd.info "call"
       ~doc:
         "Send one command to a running server and print its output \
          (exit 1 when the server reports an error).")
    Term.(const (with_jobs run) $ jobs_arg $ dir_arg $ json_arg $ cmd_arg)

let serve_cmd =
  let doc =
    "Run or manage a store server: a long-running process owning one warm \
     session (conflict graph, priority and repair caches stay live across \
     requests) behind a unix socket, with every mutation journaled to the \
     write-ahead log before it is acknowledged."
  in
  Cmd.group ~default:(
    let run dir timeout slow_ms slow_log trace_out =
      with_trace trace_out @@ fun () ->
      match Server.serve ~config:(serve_config timeout slow_ms slow_log) dir with
      | Ok () -> 0
      | Error e ->
        Format.eprintf "error: %s@." e;
        1
    in
    Term.(
      const (with_jobs run) $ jobs_arg $ dir_arg $ request_timeout_arg
      $ slow_query_ms_arg $ slow_log_arg $ trace_out_arg))
    (Cmd.info "serve" ~doc)
    [ serve_start_cmd; serve_stop_cmd; serve_status_cmd; serve_call_cmd ]

(* --- metrics / validate-slowlog ------------------------------------------------ *)

let metrics_cmd =
  let json_arg =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Print the structured JSON form instead of the exposition.")
  in
  let check_arg =
    Arg.(value & flag
         & info [ "check" ]
             ~doc:
               "Lint the exposition instead of printing it: every sample \
                preceded by its TYPE line, parsable non-NaN values, no \
                duplicate series, cumulative histogram buckets. Exits \
                non-zero on violation.")
  in
  let run dir json check =
    if check then (
      match Server.request dir "metrics" with
      | Error e ->
        Format.eprintf "error: %s@." e;
        1
      | Ok text -> (
        match Obs.Registry.lint text with
        | Ok n ->
          Format.printf "valid Prometheus exposition (%d sample(s))@." n;
          0
        | Error e ->
          Format.eprintf "INVALID exposition: %s@." e;
          1))
    else if json then (
      match Server.request_json dir "metrics" with
      | Error e ->
        Format.eprintf "error: %s@." e;
        1
      | Ok resp -> (
        match Obs.Json.member "metrics" resp with
        | Some j ->
          print_endline (Obs.Json.to_string j);
          0
        | None ->
          Format.eprintf "error: response carried no metrics field@.";
          1))
    else
      match Server.request dir "metrics" with
      | Error e ->
        Format.eprintf "error: %s@." e;
        1
      | Ok text ->
        print_string text;
        if String.length text > 0 && text.[String.length text - 1] <> '\n' then
          print_newline ();
        0
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Scrape a running server's process metrics: request counts and \
          latency histograms by command, WAL/snapshot/store health, \
          planner fallbacks and cardinality q-error, pool utilization — \
          as Prometheus text exposition (default), structured JSON \
          (--json), or a lint verdict (--check).")
    Term.(const (with_jobs run) $ jobs_arg $ dir_arg $ json_arg $ check_arg)

let validate_slowlog_cmd =
  let log_file_arg =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"LOG"
             ~doc:"Slow-query log written by --slow-query-ms (slow.jsonl).")
  in
  let run path =
    match Shell.Slowlog.validate_file path with
    | Ok n ->
      Format.printf "%s: valid (%d record(s))@." path n;
      0
    | Error e ->
      Format.eprintf "%s: INVALID: %s@." path e;
      1
  in
  Cmd.v
    (Cmd.info "validate-slowlog"
       ~doc:
         "Check a slow-query log's invariants: one JSON object per line \
          carrying the query, verdict, finite wall time and phase spans, \
          with the planner report and its text rendering present \
          together or not at all. Exits non-zero on violation.")
    Term.(const (with_jobs run) $ jobs_arg $ log_file_arg)

(* --- hyper: the conflict hypergraph, and aliases with rep as default -------- *)

let hyper_info_cmd =
  let run path = run_session path [ "hyper info" ] in
  Cmd.v
    (Cmd.info "info"
       ~doc:
         "Show the denial constraints in force and the conflict \
          hypergraph they induce: hyperedges, oriented pairs, components.")
    Term.(const (with_jobs run) $ jobs_arg $ file_arg)

let hyper_cmd =
  let rep = Some Family.Rep in
  Cmd.group
    (Cmd.info "hyper"
       ~doc:
         "Denial-constraint CQA (§6): 'info' describes the conflict \
          hypergraph; 'count', 'repairs', 'check' and 'query' are the \
          top-level commands with the family defaulting to rep (pareto and \
          global select Pareto- and globally-optimal repairs).")
    [ hyper_info_cmd; count_cmd rep; repairs_cmd rep; check_cmd rep; query_cmd rep ]

(* --- main --------------------------------------------------------------------- *)

let () =
  (* a typo'd PREFDB_JOBS would otherwise be silently ignored and the
     run would proceed on the default domain count *)
  (match Core.Pool.env_jobs_error () with
  | Some msg ->
    Format.eprintf "prefdb: %s@." msg;
    exit 124
  | None -> ());
  (match Server.env_request_timeout_error () with
  | Some msg ->
    Format.eprintf "prefdb: %s@." msg;
    exit 124
  | None -> ());
  let doc = "preference-driven querying of inconsistent relational databases" in
  let info = Cmd.info "prefdb" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            info_cmd; stats_cmd; repairs_cmd None; check_cmd None; count_cmd None;
            clean_cmd; query_cmd None; explain_cmd; plan_cmd; status_cmd; facts_cmd; aggregate_cmd;
            update_cmd; shell_cmd; profile_cmd; validate_trace_cmd;
            validate_slowlog_cmd; init_cmd; serve_cmd; metrics_cmd; hyper_cmd;
          ]))
