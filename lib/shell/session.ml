open Relational
module IF = Dbio.Instance_format
module Family = Core.Family

type event =
  | Updated of Core.Delta.op list
  | Undone
  | Preferred of IF.pref

type state = {
  spec : IF.spec option;
  family : Family.name;
  engine : Core.Delta.t option;
      (* the incremental engine backing the loaded spec; [None] when no
         instance is loaded or its preferences don't induce a valid
         priority (commands then fall back to the rebuild path, which
         reports the error) *)
  observer : (event -> (unit, string) result) option;
      (* mutation hook — the serve loop's write-ahead-log append point *)
}

let initial = { spec = None; family = Family.C; engine = None; observer = None }
let family st = st.family
let loaded st = st.spec
let set_observer st f = { st with observer = Some f }

(* The observer is the durability gate: a mutation is committed to the
   session only once it is journaled. When the observer fails, the
   command rolls the in-memory change back (or never applies it) and
   reports an error — the served state must never diverge from what the
   journal can reproduce. *)
let notify st ev =
  match st.observer with None -> Ok () | Some f -> f ev

let drop_undo_history st =
  match st.engine with None -> () | Some eng -> Core.Delta.drop_history eng

let help_text =
  "commands:\n\
  \  load FILE            load an instance file\n\
  \  family rep|l|s|g|c   select the preferred-repair family\n\
  \  jobs [N]             show or set the domain count for parallel\n\
  \                       evaluation (1 = sequential)\n\
  \  info                 schema, constraints, conflicts\n\
  \  repairs [N]          enumerate (at most N) preferred repairs\n\
  \  count                count preferred repairs without enumerating\n\
  \  stats                inconsistency summary\n\
  \  facts                certain / disputed / excluded tuples\n\
  \  clean                run Algorithm 1\n\
  \  trace                run Algorithm 1 step by step\n\
  \  query Q              (preferred) consistent answer to Q\n\
  \  qtrace Q             answer plus the decomposition's work report\n\
  \  profile Q            answer plus a hierarchical time profile\n\
  \  explain Q            answer with witness repairs (and the physical\n\
  \                       plan the per-repair checks run)\n\
  \  plan Q               the cost-based physical plan for Q over the\n\
  \                       current instance, with estimated vs. actual\n\
  \                       cardinalities and chosen indexes\n\
  \  status VALUES        a tuple's conflicts and fate\n\
  \  aggregate SPEC       count | sum:A | min:A | max:A\n\
  \  insert VALUES        add a tuple (incremental: only touched\n\
  \                       components are recomputed)\n\
  \  delete VALUES        remove a tuple (incremental)\n\
  \  undo                 revert the most recent insert/delete\n\
  \  prefer DECL          add a preference (as in the file format)\n\
  \  denials              list the denial constraints in force\n\
  \  hyper [info]         the conflict hypergraph: edges, components\n\
  \  hyper count [FAM]    count preferred repairs on the hyperedge\n\
  \                       substrate (FAM: rep|pareto|global)\n\
  \  hyper repairs [FAM] [N]   enumerate (at most N) hyper repairs\n\
  \  hyper query [FAM] Q  certain answer under denial constraints\n\
  \  save FILE            write the instance and preferences back out\n\
  \  metrics              process metrics in Prometheus text format\n\
  \  help                 this text\n\
  \  quit                 leave"

(* Build the binary evaluation context of the loaded instance: the
   conflict graph of its FDs, oriented by its preferences. *)
let fd_context spec =
  let c = Core.Conflict.build spec.IF.fds spec.IF.relation in
  match IF.to_rule spec with
  | Error e -> Error e
  | Ok rule -> (
    match Core.Pref_rules.apply c rule with
    | Error e -> Error e
    | Ok p -> Ok (c, p))

let build_engine spec =
  match IF.to_rule spec with
  | Error e -> Error e
  | Ok rule -> Core.Delta.create ~rule spec.IF.fds spec.IF.relation

(* A session over an already-recovered spec — the serve loop's entry
   point, where the store (not a [load] command) owns the instance. *)
let of_spec ?engine spec =
  let engine =
    match engine with
    | Some _ as e -> e
    | None -> ( match build_engine spec with Ok e -> Some e | Error _ -> None)
  in
  { initial with spec = Some spec; engine }

(* The binary conflict graph is built from the FDs alone, so a spec
   that declares denials would be answered as if they did not exist. *)
let denials_declared =
  "the instance declares denial constraints, which the FD conflict graph \
   ignores (use: hyper count|repairs|query)"

let context spec =
  if spec.IF.denials <> [] then Error denials_declared else fd_context spec

(* For the commands that describe the instance rather than answer over
   its repairs ([info], [plan]): the FD context of any spec. *)
let with_fd_context st k =
  match st.spec with
  | None -> "no instance loaded (use: load FILE)"
  | Some spec -> (
    match st.engine with
    | Some eng -> k spec (Core.Delta.conflict eng) (Core.Delta.priority eng)
    | None -> (
      match fd_context spec with
      | Error e -> "error: " ^ e
      | Ok (c, p) -> k spec c p))

let with_context st k =
  match st.spec with
  | Some spec when spec.IF.denials <> [] -> "error: " ^ denials_declared
  | _ -> with_fd_context st k

(* The decomposition to answer through: the engine's one accumulates its
   component-repair cache across commands and updates. *)
let decompose_of st c p =
  match st.engine with
  | Some eng -> Core.Delta.decompose eng
  | None -> Core.Decompose.make c p

let buffer_out k =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  k ppf;
  Format.pp_print_flush ppf ();
  (* drop one trailing newline for tidy echoing *)
  let s = Buffer.contents buf in
  if String.length s > 0 && s.[String.length s - 1] = '\n' then
    String.sub s 0 (String.length s - 1)
  else s

(* --- individual commands --------------------------------------------------- *)

let cmd_load st path =
  match IF.parse_file path with
  | Error e when String.starts_with ~prefix:path e -> (st, "error: " ^ e)
  | Error e -> (st, Printf.sprintf "error: %s: %s" path e)
  | Ok spec ->
    let engine =
      match build_engine spec with Ok e -> Some e | Error _ -> None
    in
    ( { st with spec = Some spec; engine },
      Printf.sprintf "loaded %s: %d tuples, %d fd(s), %d preference(s)%s" path
        (Relation.cardinality spec.IF.relation)
        (List.length spec.IF.fds)
        (List.length spec.IF.prefs)
        (match spec.IF.denials with
        | [] -> ""
        | ds -> Printf.sprintf ", %d denial(s)" (List.length ds)) )

let cmd_family st name =
  match Family.name_of_string name with
  | Some f -> ({ st with family = f }, "family: " ^ Family.name_to_string f)
  | None -> (st, Printf.sprintf "unknown family %S (use rep|l|s|g|c)" name)

let cmd_info st =
  with_fd_context st (fun spec c p ->
      buffer_out (fun ppf ->
          let schema = Relation.schema spec.IF.relation in
          Format.fprintf ppf "relation: %a@." Schema.pp schema;
          Format.fprintf ppf "tuples:   %d@." (Relation.cardinality spec.IF.relation);
          Format.fprintf ppf "interned: %d symbol(s)@." (Intern.count ());
          Format.fprintf ppf "domains:  %d@." (Core.Pool.jobs ());
          List.iter
            (fun fd -> Format.fprintf ppf "fd:       %a@." Constraints.Fd.pp fd)
            spec.IF.fds;
          Format.fprintf ppf "candidate keys: %s@."
            (String.concat ", "
               (List.map
                  (fun k -> "{" ^ String.concat " " k ^ "}")
                  (Constraints.Fd.candidate_keys schema spec.IF.fds)));
          Format.fprintf ppf "conflicts: %d (%d oriented)@."
            (List.length (Core.Conflict.conflict_pairs c))
            (Core.Priority.arc_count p);
          Format.fprintf ppf "BCNF:     %b"
            (Constraints.Fd.is_bcnf schema spec.IF.fds)))

let cmd_repairs st limit =
  with_context st (fun _spec c p ->
      buffer_out
        (Core.Decompose.pp_repairs st.family (decompose_of st c p) ~limit))

let cmd_count st =
  with_context st (fun _spec c p ->
      let d = decompose_of st c p in
      Printf.sprintf "%s: %d preferred repair(s) across %d component(s)"
        (Family.name_to_string st.family)
        (Core.Decompose.count st.family d)
        (Core.Decompose.component_count d))

let cmd_facts st =
  with_context st (fun _spec c p ->
      let d = decompose_of st c p in
      let certain = Core.Decompose.certain_tuples st.family d in
      let possible = Core.Decompose.possible_tuples st.family d in
      let all = Core.Conflict.live c in
      buffer_out (fun ppf ->
          let show label s =
            Format.fprintf ppf "%s (%d):@." label (Graphs.Vset.cardinal s);
            Graphs.Vset.iter
              (fun v -> Format.fprintf ppf "  %a@." Tuple.pp (Core.Conflict.tuple c v))
              s
          in
          show "certain" certain;
          show "disputed" (Graphs.Vset.diff possible certain);
          show "excluded" (Graphs.Vset.diff all possible)))

let cmd_stats st =
  with_context st (fun spec c p ->
      buffer_out (fun ppf ->
          Format.fprintf ppf "%a@." Core.Stats.pp
            (Core.Stats.compute_with st.family (decompose_of st c p));
          (* column statistics feed the query planner's cost model; the
             engine's copy is patched in place by every update batch, so
             its scan/patch counters double as the invalidation log *)
          let cs =
            match st.engine with
            | Some eng -> Core.Delta.column_stats eng
            | None -> Planner.Stats.scan spec.IF.relation
          in
          Format.fprintf ppf "%a" Planner.Stats.pp cs))

let cmd_clean st =
  with_context st (fun _spec c p ->
      let report = Core.Clean.run_with_priority c p in
      buffer_out (fun ppf ->
          Format.fprintf ppf "%a@." Core.Clean.pp_report report;
          Relation.iter
            (fun t -> Format.fprintf ppf "  %a@." Tuple.pp t)
            report.Core.Clean.cleaned))

let cmd_trace st =
  with_context st (fun _spec c p ->
      buffer_out (fun ppf ->
          Format.fprintf ppf "%a" (Core.Trace.pp c) (Core.Trace.clean c p)))

(* All query routes go through the component decomposition: ground
   queries hit the clause engine, quantified ones the deviation-scan
   streaming — both exponential only in the largest component. A closed
   query gets its verdict, an open one its certain bindings. *)
let answer st d q =
  if Query.Ast.is_closed q then
    Printf.sprintf "%s: %s"
      (Family.name_to_string st.family)
      (Core.Cqa.certainty_to_string (Core.Decompose.certainty st.family d q))
  else begin
    let free, rows = Core.Decompose.consistent_answers_open st.family d q in
    buffer_out (fun ppf ->
        Format.fprintf ppf "certain answers (%s):@." (String.concat ", " free);
        List.iter
          (fun row ->
            Format.fprintf ppf "  (%s)@."
              (String.concat ", " (List.map Value.to_string row)))
          rows;
        Format.fprintf ppf "%d certain answer(s)" (List.length rows))
  end

let with_query st text k =
  with_context st (fun _spec c p ->
      match Query.Parser.parse text with
      | Error e -> "error: " ^ e
      | Ok q -> k (decompose_of st c p) q)

let cmd_query st text = with_query st text (answer st)

let cmd_qtrace st text =
  with_query st text (fun d q ->
      if not (Query.Ast.is_closed q) then
        "error: qtrace requires a closed query"
      else
        buffer_out (fun ppf ->
            Format.fprintf ppf "%a" Core.Trace.pp_cqa
              (Core.Trace.certainty st.family d q)))

let pp_seconds ppf s =
  if s < 1e-3 then Format.fprintf ppf "%.2f us" (s *. 1e6)
  else if s < 1. then Format.fprintf ppf "%.2f ms" (s *. 1e3)
  else Format.fprintf ppf "%.3f s" s

(* Run the query with a local memory sink installed, print the profile
   tree next to the answer. If the session already traces to a sink
   (--trace-out), tee into it so the events reach both. One root span
   brackets the measured work, so the tree accounts for (almost) all of
   the wall time the footer reports. *)
let cmd_profile st text =
  with_query st text (fun d q ->
      if not (Query.Ast.is_closed q) then
        "error: profile requires a closed query"
      else begin
        let buf = Obs.Sink.Memory.create () in
        let local = Obs.Sink.Memory.sink buf in
        let outer = Obs.Span.sink () in
        let sink =
          match outer with None -> local | Some s -> Obs.Sink.tee local s
        in
        Obs.Span.set_sink (Some sink);
        let t0 = Unix.gettimeofday () in
        let verdict =
          Fun.protect
            ~finally:(fun () -> Obs.Span.set_sink outer)
            (fun () -> Obs.Span.with_span "profile" (fun () -> answer st d q))
        in
        let wall = Unix.gettimeofday () -. t0 in
        let events = Obs.Sink.Memory.events buf in
        let nodes = Obs.Profile.tree events in
        buffer_out (fun ppf ->
            Format.fprintf ppf "%s@.%a" verdict Obs.Profile.pp nodes;
            Format.fprintf ppf "wall time %a; spans cover %.1f%% (%d event(s))"
              pp_seconds wall
              (if wall > 0. then 100. *. Obs.Profile.total nodes /. wall
               else 100.)
              (List.length events))
      end)

(* The planner's view of the loaded instance: the (dirty) relation as a
   one-relation database, costed with the engine's incrementally patched
   column statistics when an engine is live. *)
let planner_db spec = Database.of_relations [ spec.IF.relation ]

let stats_of st =
  match st.engine with
  | Some eng -> Some (Core.Delta.stats_lookup eng)
  | None -> None

let planner_report st spec q =
  Planner.Explain.run ?stats:(stats_of st) (planner_db spec) q

let cmd_plan st text =
  with_fd_context st (fun spec _c _p ->
      match Query.Parser.parse text with
      | Error e -> "error: " ^ e
      | Ok q -> (
        match planner_report st spec q with
        | report -> buffer_out (fun ppf -> Planner.Explain.pp ppf report)
        | exception Invalid_argument m -> "error: " ^ m))

let plan_json st text =
  match st.spec with
  | None -> Error "no instance loaded (use: load FILE)"
  | Some spec -> (
    match Query.Parser.parse text with
    | Error e -> Error e
    | Ok q -> (
      match planner_report st spec q with
      | report -> Ok (Planner.Explain.to_json report)
      | exception Invalid_argument m -> Error m))

(* One planner run rendered both ways — the slow-query log wants the
   text and the JSON of the same report without executing twice. *)
let explain_report st text =
  match st.spec with
  | None -> Error "no instance loaded (use: load FILE)"
  | Some spec -> (
    match Query.Parser.parse text with
    | Error e -> Error e
    | Ok q -> (
      match planner_report st spec q with
      | report ->
        Ok
          ( buffer_out (fun ppf -> Planner.Explain.pp ppf report),
            Planner.Explain.to_json report )
      | exception Invalid_argument m -> Error m))

let cmd_explain st text =
  with_context st (fun spec c p ->
      match Query.Parser.parse text with
      | Error e -> "error: " ^ e
      | Ok q ->
        if not (Query.Ast.is_closed q) then "error: explain requires a closed query"
        else
          buffer_out (fun ppf ->
              (* the plan every per-repair certainty check executes,
                 shown over the current instance *)
              Format.fprintf ppf "%a@." Planner.Explain.pp_plan_only
                (planner_report st spec q);
              Format.fprintf ppf "%a"
                (Core.Explain.pp_verdict c)
                (Core.Explain.query st.family c p q)))

(* Parse VALUES against the loaded schema by round-tripping a one-tuple
   instance document — shared by [status], [insert] and [delete]. *)
let parse_tuple spec values =
  let schema = Relation.schema spec.IF.relation in
  let schema_line =
    Printf.sprintf "relation %s(%s)" (Schema.name schema)
      (String.concat ", "
         (List.map
            (fun a ->
              Printf.sprintf "%s:%s" a.Schema.attr_name
                (match a.Schema.attr_ty with
                | Schema.TName -> "name"
                | Schema.TInt -> "int"))
            (Schema.attributes schema)))
  in
  match IF.parse (Printf.sprintf "%s\ntuple %s\n" schema_line values) with
  | Error e -> Error e
  | Ok s -> (
    match Relation.tuples s.IF.relation with
    | [ t ] -> Ok t
    | _ -> Error "expected exactly one tuple")

let cmd_status st values =
  with_context st (fun spec c p ->
      match parse_tuple spec values with
      | Error e -> "error: " ^ e
      | Ok t -> (
        match Core.Explain.tuple_status st.family c p t with
        | status ->
          buffer_out (fun ppf ->
              Format.fprintf ppf "%a" Core.Explain.pp_tuple_status status)
        | exception Invalid_argument m -> "error: " ^ m))

let cmd_aggregate st spec_text =
  with_context st (fun _spec c p ->
      let agg =
        match String.split_on_char ':' spec_text with
        | [ "count" ] -> Ok Core.Aggregate.Count_all
        | [ "sum"; a ] -> Ok (Core.Aggregate.Sum a)
        | [ "min"; a ] -> Ok (Core.Aggregate.Min a)
        | [ "max"; a ] -> Ok (Core.Aggregate.Max a)
        | _ -> Error (Printf.sprintf "cannot parse aggregate %S" spec_text)
      in
      match agg with
      | Error e -> "error: " ^ e
      | Ok agg -> (
        match Core.Decompose.aggregate_range st.family (decompose_of st c p) agg with
        | Error e -> "error: " ^ e
        | Ok r ->
          buffer_out (fun ppf ->
              Format.fprintf ppf "%s over %s repairs: %a"
                (Core.Aggregate.agg_to_string agg)
                (Family.name_to_string st.family)
                Core.Aggregate.pp_range r)))

(* After an engine update, keep the stored spec's relation in sync so
   [save]/[info]/[prefer] see the current instance. *)
let sync_spec st eng =
  match st.spec with
  | None -> st
  | Some spec ->
    { st with spec = Some { spec with IF.relation = Core.Delta.relation eng } }

let cmd_update st mk values =
  match st.spec with
  | None -> (st, "no instance loaded (use: load FILE)")
  | Some spec -> (
    match st.engine with
    | None ->
      ( st,
        "error: updates need a valid preference context (fix the \
         preferences first)" )
    | Some eng -> (
      match parse_tuple spec values with
      | Error e -> (st, "error: " ^ e)
      | Ok t -> (
        let ops = mk t in
        match Core.Delta.apply eng ops with
        | Error e -> (st, "error: " ^ e)
        | Ok report -> (
          match notify st (Updated ops) with
          | Ok () ->
            ( sync_spec st eng,
              buffer_out (fun ppf -> Core.Delta.pp_report ppf report) )
          | Error e ->
            (* journaling failed: revert the batch we just applied so
               the session keeps matching what the journal replays (the
               inverse of an accepted batch always applies) *)
            ignore (Core.Delta.undo eng);
            (st, "error: not journaled (change rolled back): " ^ e)))))

let cmd_insert st values = cmd_update st (fun t -> [ Core.Delta.Insert t ]) values
let cmd_delete st values = cmd_update st (fun t -> [ Core.Delta.Delete t ]) values

let cmd_undo st =
  match (st.spec, st.engine) with
  | None, _ -> (st, "no instance loaded (use: load FILE)")
  | Some _, None -> (st, "error: nothing to undo")
  | Some _, Some eng ->
    if Core.Delta.history_depth eng = 0 then (st, "error: nothing to undo")
    else (
      (* journal before undoing: whether an undo is replayable depends
         only on the journal (the store rejects one that would revert
         past the last snapshot), and once journaled the undo itself
         cannot fail — the history is non-empty *)
      match notify st Undone with
      | Error e -> (st, "error: not journaled (nothing undone): " ^ e)
      | Ok () -> (
        match Core.Delta.undo eng with
        | Error e -> (st, "error: " ^ e)
        | Ok report ->
          ( sync_spec st eng,
            buffer_out (fun ppf -> Core.Delta.pp_report ppf report) )))

let cmd_prefer st body =
  match st.spec with
  | None -> (st, "no instance loaded (use: load FILE)")
  | Some spec -> (
    match IF.parse_pref body with
    | Error e -> (st, "error: " ^ e)
    | Ok pref -> (
      let spec' = { spec with IF.prefs = spec.IF.prefs @ [ pref ] } in
      (* reject preference sets that no longer induce a valid priority *)
      match fd_context spec' with
      | Error e -> (st, "error: preference rejected: " ^ e)
      | Ok (_, p) -> (
        (* a global preference change invalidates every cached repair
           list: rebuild the engine (cold cache, fresh history) — built
           before journaling, committed only after, so a failed append
           leaves the session on the old preference set *)
        let engine =
          match build_engine spec' with Ok e -> Some e | Error _ -> None
        in
        match notify st (Preferred pref) with
        | Ok () ->
          ( { st with spec = Some spec'; engine },
            Printf.sprintf "preference added (%d conflict(s) now oriented)"
              (Core.Priority.arc_count p) )
        | Error e -> (st, "error: not journaled (preference dropped): " ^ e))))

(* --- hyper: denial-constraint CQA over the hyperedge substrate ------------- *)

(* The denial constraints in force: the spec's own [denial] declarations
   followed by its FDs compiled to denial form, so the hyper commands
   answer out of the box on any loaded instance. *)
let compiled_fds spec =
  let schema = Relation.schema spec.IF.relation in
  List.concat_map (Constraints.Denial.of_fd schema) spec.IF.fds

let denials_of spec = spec.IF.denials @ compiled_fds spec

(* How many denials are in force, and a note on how many of them came
   from the FDs. *)
let denial_count spec =
  let declared = List.length spec.IF.denials in
  match List.length (compiled_fds spec) with
  | 0 -> (declared, "")
  | n when declared = 0 -> (n, " (compiled from the fds)")
  | n -> (declared + n, Printf.sprintf " (%d compiled from the fds)" n)

let pp_denials ppf spec =
  List.iter
    (fun dc -> Format.fprintf ppf "  %s@." (Constraints.Denial.to_string dc))
    (denials_of spec)

(* The hyper context is rebuilt per command: denial CQA is the
   analytical side door, not the serve loop's hot path, and a fresh
   build keeps it honest against the current relation. *)
let hyper_context spec =
  match Core.Hyper.build (denials_of spec) spec.IF.relation with
  | exception Invalid_argument m -> Error m
  | h -> (
    match IF.to_rule spec with
    | Error e -> Error e
    | Ok rule -> (
      match Core.Hpriority.of_rule h rule with
      | Error e -> Error e
      | Ok p -> Ok (h, p)))

let with_hyper st k =
  match st.spec with
  | None -> "no instance loaded (use: load FILE)"
  | Some spec -> (
    match hyper_context spec with
    | Error e -> "error: " ^ e
    | Ok (h, p) -> k spec h p)

let cmd_denials st =
  match st.spec with
  | None -> "no instance loaded (use: load FILE)"
  | Some spec ->
    let n, note = denial_count spec in
    buffer_out (fun ppf ->
        Format.fprintf ppf "%d denial constraint(s)%s@.%a" n note pp_denials
          spec)

let cmd_hyper_info st =
  with_hyper st (fun spec h p ->
      let d = Core.Hdecompose.make h p in
      let n, note = denial_count spec in
      buffer_out (fun ppf ->
          Format.fprintf ppf "denials:    %d%s@.%a" n note pp_denials spec;
          Format.fprintf ppf "facts:      %d live@."
            (Graphs.Vset.cardinal (Core.Hyper.live h));
          Format.fprintf ppf "hyperedges: %d@."
            (Graphs.Hypergraph.edge_count (Core.Hyper.hypergraph h));
          Format.fprintf ppf "oriented:   %d arc(s)@."
            (Core.Hpriority.arc_count p);
          Format.fprintf ppf "components: %d (largest %d)@."
            (Core.Hdecompose.component_count d)
            (Core.Hdecompose.max_component d);
          Format.fprintf ppf "consistent: %b" (Core.Hyper.is_consistent h)))

let cmd_hyper_count st fam =
  with_hyper st (fun _spec h p ->
      let d = Core.Hdecompose.make h p in
      Printf.sprintf "%s: %d preferred repair(s) across %d component(s)"
        (Core.Hfamily.name_to_string fam)
        (Core.Hdecompose.count fam d)
        (Core.Hdecompose.component_count d))

let cmd_hyper_repairs st fam limit =
  with_hyper st (fun _spec h p ->
      buffer_out (Core.Hdecompose.pp_repairs fam (Core.Hdecompose.make h p) ~limit))

let cmd_hyper_query st fam text =
  with_hyper st (fun _spec h p ->
      match Query.Parser.parse text with
      | Error e -> "error: " ^ e
      | Ok q ->
        if not (Query.Ast.is_closed q) then
          "error: hyper query requires a closed query"
        else
          let d = Core.Hdecompose.make h p in
          Printf.sprintf "%s: %s"
            (Core.Hfamily.name_to_string fam)
            (Core.Cqa.certainty_to_string (Core.Hdecompose.certainty fam d q)))

let cmd_save st path =
  match st.spec with
  | None -> (st, "no instance loaded (use: load FILE)")
  | Some spec -> (
    match IF.save path spec with
    | Ok () -> (st, "saved " ^ path)
    | Error m -> (st, "error: " ^ m))

(* --- dispatch ---------------------------------------------------------------- *)

let split_command line =
  let trimmed = String.trim line in
  match String.index_opt trimmed ' ' with
  | None -> (trimmed, "")
  | Some i ->
    ( String.sub trimmed 0 i,
      String.trim (String.sub trimmed i (String.length trimmed - i)) )

let hyper_usage =
  "usage: hyper [info] | hyper count [FAM] | hyper repairs [FAM] [N] | hyper \
   query [FAM] Q   (FAM: rep|pareto|global; default rep)"

(* An optional leading family token; everything else is the argument. *)
let pop_hyper_family arg =
  let tok, rest = split_command arg in
  match Core.Hfamily.name_of_string tok with
  | Some f -> (f, rest)
  | None -> (Core.Hfamily.Rep, arg)

let cmd_hyper st rest =
  let sub, arg = split_command rest in
  match (String.lowercase_ascii sub, arg) with
  | ("" | "info"), "" -> cmd_hyper_info st
  | "count", arg -> (
    match pop_hyper_family arg with
    | fam, "" -> cmd_hyper_count st fam
    | _ -> hyper_usage)
  | "repairs", arg -> (
    match pop_hyper_family arg with
    | fam, "" -> cmd_hyper_repairs st fam 20
    | fam, n -> (
      match int_of_string_opt n with
      | Some n when n >= 0 -> cmd_hyper_repairs st fam n
      | _ -> hyper_usage))
  | "query", arg -> (
    match pop_hyper_family arg with
    | _, "" -> hyper_usage
    | fam, q -> cmd_hyper_query st fam q)
  | _ -> hyper_usage

let exec st line =
  let cmd, rest = split_command line in
  let cmd = String.lowercase_ascii cmd in
  (* every command runs inside a [shell.<cmd>] span, so a session-wide
     trace sink (--trace-out) captures interactive work — stats, qtrace,
     updates — with the same nesting as the CLI paths *)
  let run () =
    match (cmd, rest) with
    | "", "" -> (st, "")
    | "help", _ -> (st, help_text)
    | "load", "" -> (st, "usage: load FILE")
    | "load", path -> cmd_load st path
    | "family", name -> cmd_family st name
    | "jobs", "" -> (st, Printf.sprintf "domains: %d" (Core.Pool.jobs ()))
    | "jobs", n -> (
      match int_of_string_opt n with
      | Some n when n >= 1 ->
        Core.Pool.set_jobs n;
        (st, Printf.sprintf "domains: %d" (Core.Pool.jobs ()))
      | _ -> (st, "usage: jobs [N]  (N >= 1)"))
    | "info", _ -> (st, cmd_info st)
    | "repairs", "" -> (st, cmd_repairs st 20)
    | "repairs", n -> (
      match int_of_string_opt n with
      | Some n when n >= 0 -> (st, cmd_repairs st n)
      | _ -> (st, "usage: repairs [N]"))
    | "count", _ -> (st, cmd_count st)
    | "stats", _ -> (st, cmd_stats st)
    | "facts", _ -> (st, cmd_facts st)
    | "clean", _ -> (st, cmd_clean st)
    | "trace", _ -> (st, cmd_trace st)
    | "query", "" -> (st, "usage: query Q")
    | "query", q -> (st, cmd_query st q)
    | "qtrace", "" -> (st, "usage: qtrace Q")
    | "qtrace", q -> (st, cmd_qtrace st q)
    | "profile", "" -> (st, "usage: profile Q")
    | "profile", q -> (st, cmd_profile st q)
    | "explain", "" -> (st, "usage: explain Q")
    | "explain", q -> (st, cmd_explain st q)
    | "plan", "" -> (st, "usage: plan Q")
    | "plan", q -> (st, cmd_plan st q)
    | "status", "" -> (st, "usage: status VALUES")
    | "status", v -> (st, cmd_status st v)
    | "insert", "" -> (st, "usage: insert VALUES")
    | "insert", v -> cmd_insert st v
    | "delete", "" -> (st, "usage: delete VALUES")
    | "delete", v -> cmd_delete st v
    | "undo", _ -> cmd_undo st
    | "aggregate", "" -> (st, "usage: aggregate count|sum:A|min:A|max:A")
    | "aggregate", a -> (st, cmd_aggregate st a)
    | "prefer", "" -> (st, "usage: prefer source A > B | newest | oldest | attribute A larger|smaller | formula F")
    | "prefer", body -> cmd_prefer st body
    | "denials", _ -> (st, cmd_denials st)
    | "hyper", rest -> (st, cmd_hyper st rest)
    | "save", "" -> (st, "usage: save FILE")
    | "save", path -> cmd_save st path
    | "metrics", _ -> (st, Obs.Registry.render ())
    | other, _ -> (st, Printf.sprintf "unknown command %S (try: help)" other)
  in
  if cmd = "" then run () else Obs.Span.with_span ("shell." ^ cmd) run

(* Error outputs all share a recognizable prefix; the non-interactive
   driver uses this to decide its exit code. *)
let is_error_output out =
  let prefixed p =
    String.length out >= String.length p && String.sub out 0 (String.length p) = p
  in
  prefixed "error" || prefixed "unknown command" || prefixed "usage:"
  || prefixed "no instance loaded"
