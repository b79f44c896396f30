(* In-process replays of a run's request stream over a copy of the
   served store: an untraced one that is the answer key (every served
   response must equal its output byte for byte), and a traced one that
   breaks each request down by layer.

   Both open the store through [Dbio.Store.open_] and build the session
   the way the serve loop does: [Session.of_spec ~engine], journaling
   each mutation through [Store.log] from [Session.set_observer]. *)

module IF = Dbio.Instance_format
module Session = Shell.Session

let now = Unix.gettimeofday

let entry_of_event = function
  | Session.Updated ops -> Dbio.Wal.Batch ops
  | Session.Undone -> Dbio.Wal.Undo
  | Session.Preferred p -> Dbio.Wal.Prefer p

let open_session ?(journal = fun f -> f ()) dir =
  match Dbio.Store.open_ dir with
  | Error e -> failwith (dir ^ ": " ^ e)
  | Ok store ->
    let st =
      Session.of_spec ~engine:(Dbio.Store.engine store) (Dbio.Store.spec store)
    in
    ( store,
      Session.set_observer st (fun ev ->
          journal (fun () -> Dbio.Store.log store (entry_of_event ev))) )

let exec st line =
  let st', out = Session.exec !st line in
  st := st';
  out

(* --- the answer key ------------------------------------------------------------- *)

type key = {
  untimed : string list;
  timed : string array;
  exec_s : float array;  (** per timed request, [Session.exec] wall time *)
  probe : string list;  (** the probe's answers after the whole stream *)
  minor_words : float;  (** allocated during the timed stream *)
  major_words : float;
  major_collections : int;
}

(* With [full] the timed stream is executed request by request and
   timed.  Otherwise a read-only stream — whose answers depend only on
   the request, since nothing in it changes the session — takes each
   timed answer from the warm-up pass, which holds every distinct
   request of the timed stream. *)
let untraced ~full dir (w : Workloads.t) =
  let store, st = open_session dir in
  let st = ref st in
  let untimed = List.map (exec st) w.untimed in
  let read_only = Array.for_all (fun (r : Workloads.request) -> r.kind = Workloads.Query) w.timed in
  let n = Array.length w.timed in
  let timed = Array.make n "" and exec_s = Array.make n 0.0 in
  let g0 = Gc.quick_stat () in
  if full || not read_only then
    Array.iteri
      (fun i (r : Workloads.request) ->
        let t0 = now () in
        timed.(i) <- exec st r.line;
        exec_s.(i) <- now () -. t0)
      w.timed
  else begin
    let answers = Hashtbl.create 4096 in
    List.iter2 (Hashtbl.replace answers) w.untimed untimed;
    Array.iteri
      (fun i (r : Workloads.request) ->
        timed.(i) <-
          (match Hashtbl.find_opt answers r.line with
          | Some a -> a
          | None -> exec st r.line))
      w.timed
  end;
  let g1 = Gc.quick_stat () in
  let probe = List.map (exec st) w.probe in
  Dbio.Store.close store;
  {
    untimed;
    timed;
    exec_s;
    probe;
    minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    major_words = g1.Gc.major_words -. g0.Gc.major_words;
    major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
  }

(* --- span recording --------------------------------------------------------------- *)

(* Spans the benchmark opens around its own calls into each layer are
   named [bench.*]; everything else arrives from the spans the layers
   already publish through [Obs.Span].  The traced replay records them
   in an [Obs.Sink.Memory] log, one request at a time: after each
   request one pass over its balanced Begin/End stream pairs each End
   with its Begin and gives every span its enclosing span, the request's
   figures are folded in, and the log is cleared. *)
type span = {
  name : string;
  start : float;
  mutable stop : float;
  parent : int;  (** index of the enclosing span, -1 at the root *)
}

let spans_of events =
  let acc = ref [] and len = ref 0 and stack = ref [] in
  List.iter
    (fun (ev : Obs.Event.t) ->
      match ev.phase with
      | Obs.Event.Begin ->
        let parent = match !stack with (j, _) :: _ -> j | [] -> -1 in
        let s = { name = ev.name; start = ev.ts; stop = ev.ts; parent } in
        stack := (!len, s) :: !stack;
        acc := s :: !acc;
        incr len
      | Obs.Event.End -> (
        match !stack with
        | (_, s) :: rest ->
          s.stop <- ev.ts;
          stack := rest
        | [] -> ())
      | Obs.Event.Instant -> ())
    events;
  Array.of_list (List.rev !acc)

let span name f = Obs.Span.with_span name f

(* --- registry readings ---------------------------------------------------------- *)

(* Sum of every cell of a counter family (all label values). *)
let family_total name =
  match Obs.Json.member "metrics" (Obs.Registry.to_json ()) with
  | Some (Obs.Json.List fams) ->
    List.fold_left
      (fun acc fam ->
        match (Obs.Json.member "name" fam, Obs.Json.member "samples" fam) with
        | Some (Obs.Json.Str n), Some (Obs.Json.List samples) when n = name ->
          List.fold_left
            (fun acc s ->
              match Obs.Json.member "value" s with
              | Some (Obs.Json.Int v) -> acc + v
              | _ -> acc)
            acc samples
        | _ -> acc)
      0 fams
  | _ -> 0

let hist_snapshot name =
  Option.map Obs.Metric.snapshot (Obs.Registry.find_histogram name)

(* Median of the observations recorded between two snapshots. *)
let window_median before after =
  match (before, after) with
  | Some (b : Obs.Metric.snapshot), Some (a : Obs.Metric.snapshot)
    when a.count > b.count ->
    Obs.Metric.quantile
      { a with counts = Array.mapi (fun i c -> c - b.counts.(i)) a.counts;
               count = a.count - b.count; sum = a.sum -. b.sum }
      0.5
  | _ -> 0.0

(* --- request shapes ---------------------------------------------------------------- *)

let words line = String.split_on_char ' ' (String.trim line)

let after_words k line =
  let rec drop k s =
    if k = 0 then String.trim s
    else
      match String.index_opt s ' ' with
      | None -> ""
      | Some i -> drop (k - 1) (String.trim (String.sub s i (String.length s - i)))
  in
  drop k (String.trim line)

(* The query text a request carries, and the hyper family if any. *)
let query_of line =
  match words line with
  | "query" :: _ -> Some (None, after_words 1 line)
  | "hyper" :: "query" :: fam :: _ -> (
    match Core.Hfamily.name_of_string fam with
    | Some f -> Some (Some f, after_words 3 line)
    | None -> Some (Some Core.Hfamily.Rep, after_words 2 line))
  | _ -> None

let command line = match words line with w :: _ -> w | [] -> ""

(* One planner run of [q] over the preferred repair [rel], through the
   spanned entry points that feed the prefdb_planner_* histograms.  The
   request itself runs the same plan once per streamed combination
   through the span-free [*_relation] entry points, which count their
   fallbacks into the same family: the fallbacks are read just around
   this run, so they count this run's only. *)
let planner_check rel q =
  let db = Relational.Database.of_relations [ rel ] in
  let fb0 = family_total "prefdb_planner_fallback_total" in
  span "bench.planner" (fun () ->
      if Query.Ast.is_closed q then ignore (Planner.Engine.holds_spanned db q)
      else ignore (Planner.Engine.answers_spanned db q));
  family_total "prefdb_planner_fallback_total" - fb0

(* The hyper command's four steps, as [Session] runs them per request:
   the denials in force (declared, or the FDs compiled), the hypergraph,
   the priority, the decomposition, the verdict; then the planner run
   over one preferred repair.  Returns the verdict line and the
   planner run's fallbacks. *)
let hyper_steps spec fam q =
  let denials =
    match spec.IF.denials with
    | [] ->
      let schema = Relational.Relation.schema spec.IF.relation in
      List.concat_map (Constraints.Denial.of_fd schema) spec.IF.fds
    | dcs -> dcs
  in
  let h = span "bench.hyper.build" (fun () -> Core.Hyper.build denials spec.IF.relation) in
  let p =
    span "bench.hyper.priority" (fun () ->
        match IF.to_rule spec with
        | Error e -> failwith e
        | Ok rule -> (
          match Core.Hpriority.of_rule h rule with
          | Ok p -> p
          | Error e -> failwith e))
  in
  let d = span "bench.hyper.decompose" (fun () -> Core.Hdecompose.make h p) in
  let v = span "bench.hyper.certainty" (fun () -> Core.Hdecompose.certainty fam d q) in
  let fallbacks =
    match Core.Hdecompose.one fam d with
    | None -> 0
    | Some r -> planner_check (Core.Hyper.to_relation h r) q
  in
  (Printf.sprintf "%s: %s" (Core.Hfamily.name_to_string fam) (Core.Cqa.certainty_to_string v), fallbacks)

(* The Decompose counters, in the order the metrics below index them. *)
let dec_fields eng =
  let c = Core.Decompose.counters (Core.Delta.decompose eng) in
  Core.Decompose.
    [|
      c.cache_hits; c.cache_misses; c.component_repairs; c.combos_streamed;
      c.components_examined; c.early_exits; c.components_dirtied;
      c.cache_evicted; c.cache_retained;
    |]

(* --- the traced replay -------------------------------------------------------------- *)

type metric = string * float * string

type traced = {
  metrics : metric list;
  mismatches : int;
      (** traced answers that differ from the answer key — the trace must
          not change what the program computes *)
}

let file_size path = (Unix.stat path).Unix.st_size

let us s = s *. 1e6

let traced ~dir ~instance (w : Workloads.t) (key : key) ~served_s ~frame_bytes =
  let spec =
    match IF.parse_file instance with Ok s -> s | Error e -> failwith e
  in
  (* Store layer: the benchmark's own init of the instance, then open *)
  let t0 = now () in
  (match Dbio.Store.init "traced-init" spec with Ok () -> () | Error e -> failwith e);
  let init_s = now () -. t0 in
  Proc.rm_rf "traced-init";
  let snapshot_bytes = file_size (Dbio.Store.snapshot_path dir) in
  let facts = Relational.Relation.cardinality spec.IF.relation in
  let t0 = now () in
  let store, st = open_session ~journal:(span "bench.wal.append") dir in
  let open_s = now () -. t0 in
  let st = ref st in
  List.iter (fun l -> ignore (exec st l)) w.untimed;
  let eng = Dbio.Store.engine store in
  let n = Array.length w.timed in
  (* per-request readings around Session.exec *)
  let dec = Array.make (Array.length (dec_fields eng)) 0 in
  let totals () =
    ( family_total "prefdb_pool_tasks_total"
      + family_total "prefdb_pool_sequential_tasks_total",
      family_total "prefdb_pool_steals_total",
      family_total "prefdb_pool_parallel_jobs_total",
      family_total "prefdb_wal_bytes_total",
      family_total "prefdb_wal_appends_total" )
  in
  let tasks0, steals0, jobs0, walb0, appends0 = totals () in
  let q0 = hist_snapshot "prefdb_planner_qerror_log2" in
  let mismatches = ref 0 in
  let fallbacks = ref 0 in
  let log = Obs.Sink.Memory.create ~capacity:max_int () in
  let t_traced = ref 0.0 in
  let kind_is c i = command w.timed.(i).line = c in
  let is_shell name = String.length name > 6 && String.sub name 0 6 = "shell." in
  (* the figures folded out of each request's spans: the durations of
     every span named in [timed_spans], and per request the time in
     certainty and in delta application *)
  let timed_spans =
    [
      "bench.session.exec"; "bench.query.parse"; "bench.planner"; "planner.plan";
      "planner.execute"; "bench.wal.append"; "bench.hyper.build"; "bench.hyper.priority";
      "bench.hyper.decompose"; "bench.hyper.certainty";
    ]
  in
  let durs = Hashtbl.create 16 in
  let durs_of name = Array.of_list (Option.value (Hashtbl.find_opt durs name) ~default:[]) in
  let self_us = ref [] and certainty = ref [] and applies = ref [] and undos = ref [] in
  let context_builds = ref 0 in
  let fold i =
    let spans = spans_of (Obs.Sink.Memory.events log) in
    Obs.Sink.Memory.clear log;
    let children = Array.make (Array.length spans) [] in
    Array.iteri (fun j s -> if s.parent >= 0 then children.(s.parent) <- j :: children.(s.parent)) spans;
    let dur j = spans.(j).stop -. spans.(j).start in
    (* time inside [j] spent in inner layers; Session's own shell.* spans
       are looked through *)
    let rec layer_time j =
      List.fold_left
        (fun acc c -> if is_shell spans.(c).name then acc +. layer_time c else acc +. dur c)
        0.0 children.(j)
    in
    (* the request's total time in spans named [names], if it has any *)
    let total names =
      let t = ref None in
      Array.iteri
        (fun j s ->
          if List.mem s.name names then t := Some (Option.value !t ~default:0.0 +. us (dur j)))
        spans;
      !t
    in
    Array.iteri
      (fun j s ->
        if List.mem s.name timed_spans then
          Hashtbl.replace durs s.name
            (us (dur j) :: Option.value (Hashtbl.find_opt durs s.name) ~default:[]);
        if s.name = "bench.session.exec" then self_us := us (dur j -. layer_time j) :: !self_us;
        (* whole-relation hypergraph builds made by Session itself; the
           decomposition's per-component sub-builds nest deeper *)
        if s.name = "hyper.build" && s.parent >= 0 && is_shell spans.(s.parent).name then
          incr context_builds)
      spans;
    Option.iter (fun t -> certainty := t :: !certainty) (total [ "cqa.certainty"; "cqa.open" ]);
    match total [ "delta.apply" ] with
    | Some t when kind_is "undo" i -> undos := t :: !undos
    | Some t when kind_is "insert" i || kind_is "delete" i -> applies := t :: !applies
    | _ -> ()
  in
  Obs.Span.set_sink (Some (Obs.Sink.Memory.sink log));
  Array.iteri
    (fun i (req : Workloads.request) ->
      (Obs.Span.with_span "bench.request" @@ fun () ->
       let c0 = dec_fields eng in
       let t0 = now () in
       let out = span "bench.session.exec" (fun () -> exec st req.line) in
       t_traced := !t_traced +. (now () -. t0);
       Array.iteri (fun k v -> dec.(k) <- dec.(k) + v - c0.(k)) (dec_fields eng);
       if out <> key.timed.(i) then incr mismatches;
       (* the query layers the request went through, timed beside it *)
       match query_of req.line with
       | None -> ()
       | Some (fam, text) -> (
         match span "bench.query.parse" (fun () -> Query.Parser.parse text) with
         | Error _ -> incr mismatches
         | Ok q -> (
           match (fam, Session.loaded !st) with
           | Some fam, Some spec ->
             let verdict, fb = hyper_steps spec fam q in
             if verdict <> out then incr mismatches;
             fallbacks := !fallbacks + fb
           | None, _ when not (Query.Ast.is_ground q) -> (
             let d = Core.Delta.decompose eng in
             match Core.Decompose.one (Session.family !st) d with
             | None -> ()
             | Some r ->
               fallbacks :=
                 !fallbacks + planner_check (Core.Repair.to_relation (Core.Delta.conflict eng) r) q)
           | _ -> ())));
      fold i)
    w.timed;
  Obs.Span.set_sink None;
  if Obs.Sink.Memory.dropped log > 0 then failwith "traced replay: span log dropped events";
  let tasks1, steals1, jobs1, walb1, appends1 = totals () in
  let q1 = hist_snapshot "prefdb_planner_qerror_log2" in
  (* Store layer again: reopening replays exactly this replay's journal *)
  Dbio.Store.close store;
  let t0 = now () in
  let reopened =
    match Dbio.Store.open_ dir with Ok s -> s | Error e -> failwith e
  in
  let reopen_s = now () -. t0 in
  let replayed = Dbio.Store.wal_records reopened in
  Dbio.Store.close reopened;
  let is_write i = w.timed.(i).kind = Workloads.Write in
  let exec_us = durs_of "bench.session.exec" and self_us = Array.of_list !self_us in
  let certainty = Array.of_list !certainty in
  let context_builds = float_of_int !context_builds in
  let writes = float_of_int (Array.fold_left (fun a (q : Workloads.request) -> if q.kind = Workloads.Write then a + 1 else a) 0 w.timed) in
  let hyper_reqs =
    float_of_int
      (Array.fold_left (fun a (q : Workloads.request) -> if command q.line = "hyper" then a + 1 else a) 0 w.timed)
  in
  let fn = float_of_int n in
  let d k = float_of_int dec.(k) in
  let hits = d 0 and misses = d 1 in
  let evicted = d 7 and retained = d 8 in
  let answered = float_of_int (Array.length certainty) in
  let served_us = Array.map us served_s in
  let overhead =
    Array.mapi (fun i s -> s -. us key.exec_s.(i)) served_us
  in
  let tasks = float_of_int (tasks1 - tasks0) in
  let metrics =
    [
      ("server.overhead_us", Stats.median overhead, "us");
      ("server.resp_bytes_per_req", Stats.ratio (Stats.sum frame_bytes) fn, "bytes");
      ( "server.write_p50_ms",
        Stats.median (Array.of_list (List.filteri (fun i _ -> is_write i) (Array.to_list served_s))) *. 1000.0,
        "ms" );
      ("session.exec_us", Stats.median exec_us, "us");
      ("session.exec_us_p99", Stats.percentile 0.99 exec_us, "us");
      ("session.self_us", Stats.median self_us, "us");
      ("query.parse_us", Stats.median (durs_of "bench.query.parse"), "us");
      ("decompose.certainty_us", Stats.median certainty, "us");
      ("decompose.certainty_us_p99", Stats.percentile 0.99 certainty, "us");
      ("decompose.cache_hit_ratio", Stats.ratio hits (hits +. misses), "ratio");
      ("decompose.repairs_materialized_per_req", d 2 /. fn, "count");
      ("decompose.components_examined_per_req", d 4 /. fn, "count");
      ("decompose.combos_streamed_per_req", d 3 /. fn, "count");
      ("decompose.early_exit_ratio", Stats.ratio (d 5) answered, "ratio");
      ("planner.plan_us", Stats.median (durs_of "planner.plan"), "us");
      ("planner.execute_us", Stats.median (durs_of "planner.execute"), "us");
      (* each combination the decomposition streams is one per-repair
         planner run *)
      ("planner.executions_per_req", d 3 /. fn, "count");
      ( "planner.fallback_ratio",
        Stats.ratio (float_of_int !fallbacks) (float_of_int (Array.length (durs_of "bench.planner"))),
        "ratio" );
      ("planner.qerror_median_log2", window_median q0 q1, "log2");
      ("pool.tasks_per_req", tasks /. fn, "count");
      ("pool.steal_ratio", Stats.ratio (float_of_int (steals1 - steals0)) tasks, "ratio");
      ("pool.parallel_jobs_per_req", float_of_int (jobs1 - jobs0) /. fn, "count");
      ( "delta.apply_us",
        Stats.median (Array.of_list !applies),
        "us" );
      ("delta.undo_us", Stats.median (Array.of_list !undos), "us");
      ("delta.components_dirtied_per_batch", Stats.ratio (d 6) writes, "count");
      ("delta.cache_evicted_per_batch", Stats.ratio evicted writes, "count");
      ("delta.cache_retained_ratio", Stats.ratio retained (retained +. evicted), "ratio");
      ("wal.append_us", Stats.median (durs_of "bench.wal.append"), "us");
      ("wal.append_us_p99", Stats.percentile 0.99 (durs_of "bench.wal.append"), "us");
      ("wal.bytes_per_mutation", Stats.ratio (float_of_int (walb1 - walb0)) writes, "bytes");
      ("wal.fsyncs_per_mutation", Stats.ratio (float_of_int (appends1 - appends0)) writes, "count");
      ("store.init_s", init_s, "s");
      ("store.open_s", open_s, "s");
      ("store.replay_records", float_of_int replayed, "count");
      ( "store.replay_us_per_record",
        (if replayed = 0 then 0.0 else us (reopen_s -. open_s) /. float_of_int replayed),
        "us" );
      ("snapshot.bytes_per_fact", Stats.ratio (float_of_int snapshot_bytes) (float_of_int facts), "bytes");
      ("hyper.build_us", Stats.median (durs_of "bench.hyper.build"), "us");
      ("hyper.priority_us", Stats.median (durs_of "bench.hyper.priority"), "us");
      ("hyper.decompose_us", Stats.median (durs_of "bench.hyper.decompose"), "us");
      ("hyper.certainty_us", Stats.median (durs_of "bench.hyper.certainty"), "us");
      ("hyper.context_builds_per_req", Stats.ratio context_builds hyper_reqs, "count");
      ("gc.minor_words_per_req", key.minor_words /. fn, "words");
      ("gc.major_words_per_req", key.major_words /. fn, "words");
      ("gc.major_collections_per_kreq", float_of_int key.major_collections *. 1000.0 /. fn, "1/kreq");
      ("trace.overhead_ratio", Stats.ratio !t_traced (Stats.sum key.exec_s), "x");
    ]
  in
  { metrics; mismatches = !mismatches }
