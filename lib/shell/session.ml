open Relational
module IF = Dbio.Instance_format
module Family = Core.Family

type event =
  | Updated of Core.Delta.op list
  | Undone
  | Preferred of IF.pref

(* The hyperedge context of a spec: the hypergraph of its declared
   denials plus its FDs in denial form, the priority over it, and the
   decomposition whose component-repair cache serves every command until
   the spec changes. *)
type hyper = {
  h : Core.Hyper.t;
  hp : Core.Hpriority.t;
  hd : Core.Hdecompose.t;
}

(* A loaded spec and what is built from it. *)
type instance = {
  spec : IF.spec;
  engine : (Core.Delta.t, string) result;
      (* the incremental engine: it owns the relation, the undo history
         and the journal on every spec, and answers the repair commands
         when the spec declares no denials; [Error] when the preferences
         do not induce a valid priority *)
  hyper : (hyper, string) result Lazy.t;
      (* answers the repair commands when the spec declares denials;
         built on first use, replaced with every new spec *)
}

type state = {
  inst : instance option;
  family : Family.name option;  (* [None]: the spec's default *)
  observer : (event -> (unit, string) result) option;
      (* mutation hook — the serve loop's write-ahead-log append point *)
}

let initial = { inst = None; family = None; observer = None }
let declares_denials spec = spec.IF.denials <> []

(* C-Rep on the FD graph, as the paper's algorithms default; Rep on
   denial constraints, where C-Rep has no counterpart. *)
let default_family spec = if declares_denials spec then Family.Rep else Family.C

let family st =
  match (st.family, st.inst) with
  | Some f, _ -> f
  | None, Some i -> default_family i.spec
  | None, None -> Family.C

let loaded st = Option.map (fun i -> i.spec) st.inst
let set_observer st f = { st with observer = Some f }

(* The observer is the durability gate: a mutation is committed to the
   session only once it is journaled. When the observer fails, the
   command rolls the in-memory change back (or never applies it) and
   reports an error — the served state must never diverge from what the
   journal can reproduce. *)
let notify st ev =
  match st.observer with None -> Ok () | Some f -> f ev

let drop_undo_history st =
  match st.inst with
  | Some { engine = Ok eng; _ } -> Core.Delta.drop_history eng
  | _ -> ()

let help_text =
  "commands:\n\
  \  load FILE            load an instance file\n\
  \  family FAM           select the preferred-repair family:\n\
  \                       rep|l|s|g|c, pareto (= s), global (= g);\n\
  \                       default c, or rep when the instance declares\n\
  \                       denials (which allow rep|pareto|global only)\n\
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
  \  hyper count|repairs|query [FAM] ...\n\
  \                       the command under FAM for this one request\n\
  \                       (default rep)\n\
  \  save FILE            write the instance and preferences back out\n\
  \  metrics              process metrics in Prometheus text format\n\
  \  help                 this text\n\
  \  quit                 leave\n\
   On an instance declaring denials, every repair question answers on\n\
   the conflict hypergraph; only clean and trace need an FD-only\n\
   instance."

(* The denial constraints in force: the spec's own [denial] declarations
   followed by its FDs compiled to denial form. *)
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

let build_engine spec =
  match IF.to_rule spec with
  | Error e -> Error e
  | Ok rule -> Core.Delta.create ~rule spec.IF.fds spec.IF.relation

let build_hyper spec =
  match Core.Hyper.build (denials_of spec) spec.IF.relation with
  | exception Invalid_argument m -> Error m
  | h -> (
    match Result.bind (IF.to_rule spec) (Core.Hpriority.of_rule h) with
    | Error e -> Error e
    | Ok hp -> Ok { h; hp; hd = Core.Hdecompose.make h hp })

let instance spec engine = { spec; engine; hyper = lazy (build_hyper spec) }

(* A session over an already-recovered spec — the serve loop's entry
   point, where the store (not a [load] command) owns the instance. *)
let of_spec ?engine spec =
  let engine = match engine with Some e -> Ok e | None -> build_engine spec in
  { initial with inst = Some (instance spec engine) }

(* --- the repair questions, on the spec's substrate ------------------------ *)

(* One (substrate, family) pair: what the repair commands ask, answered
   through that substrate's sharded engine. *)
type answers = {
  label : string;
  count : unit -> int;
  components : unit -> int;
  pp_repairs : limit:int -> Format.formatter -> unit;
  live : unit -> Graphs.Vset.t;
  tuple : int -> Tuple.t;
  certain : unit -> Graphs.Vset.t;
  possible : unit -> Graphs.Vset.t;
  certainty : Query.Ast.t -> Core.Cqa.certainty;
  explain : Query.Ast.t -> Core.Sharded.verdict;
  status : Tuple.t -> Core.Sharded.tuple_status;
  summary : unit -> Core.Sharded.summary;
  qtrace : Query.Ast.t -> Core.Sharded.qtrace;
  open_answers : Query.Ast.t -> string list * Value.t list list;
  aggregate : Core.Aggregate.agg -> (Core.Aggregate.range, string) result;
  check : Relation.t -> bool;
}

let binary_answers fam eng =
  let module D = Core.Decompose in
  let d = Core.Delta.decompose eng and c = Core.Delta.conflict eng in
  {
    label = Family.name_to_string fam;
    count = (fun () -> D.count fam d);
    components = (fun () -> D.component_count d);
    pp_repairs = D.pp_repairs fam d;
    live = (fun () -> Core.Conflict.live c);
    tuple = Core.Conflict.tuple c;
    certain = (fun () -> D.certain_tuples fam d);
    possible = (fun () -> D.possible_tuples fam d);
    certainty = D.certainty fam d;
    explain = D.explain fam d;
    status = D.tuple_status fam d;
    summary = (fun () -> D.summary fam d);
    qtrace = D.qtrace fam d;
    open_answers = D.consistent_answers_open fam d;
    aggregate = D.aggregate_range fam d;
    check = Family.check_relation fam c (Core.Delta.priority eng);
  }

let hyper_answers fam { h; hp; hd } =
  let module D = Core.Hdecompose in
  {
    label = Core.Hfamily.name_to_string fam;
    count = (fun () -> D.count fam hd);
    components = (fun () -> D.component_count hd);
    pp_repairs = D.pp_repairs fam hd;
    live = (fun () -> Core.Hyper.live h);
    tuple = Core.Hyper.tuple h;
    certain = (fun () -> D.certain_tuples fam hd);
    possible = (fun () -> D.possible_tuples fam hd);
    certainty = D.certainty fam hd;
    explain = D.explain fam hd;
    status = D.tuple_status fam hd;
    summary = (fun () -> D.summary fam hd);
    qtrace = D.qtrace fam hd;
    open_answers = D.consistent_answers_open fam hd;
    aggregate = D.aggregate_range fam hd;
    check = Core.Hfamily.check_relation fam h hp;
  }

(* Pareto- and globally-optimal repairs generalize S- and G-Rep to
   conflict hypergraphs (on binary conflicts they coincide); L- and
   C-Rep have no hyperedge counterpart. *)
let hyper_family = function
  | Family.Rep -> Ok Core.Hfamily.Rep
  | Family.S -> Ok Core.Hfamily.Pareto
  | Family.G -> Ok Core.Hfamily.Global
  | (Family.L | Family.C) as f ->
    Error
      (Printf.sprintf
         "%s is not defined under denial constraints (use rep|pareto|global)"
         (Family.name_to_string f))

let answers_of st i =
  if declares_denials i.spec then
    Result.bind (hyper_family (family st)) (fun fam ->
        Result.map (hyper_answers fam) (Lazy.force i.hyper))
  else Result.map (binary_answers (family st)) i.engine

let no_instance = "no instance loaded (use: load FILE)"
let with_instance st k = match st.inst with None -> no_instance | Some i -> k i

let with_answers st k =
  with_instance st (fun i ->
      match answers_of st i with Error e -> "error: " ^ e | Ok a -> k a)

(* Algorithm 1 is defined on the binary conflict graph only: on a spec
   that declares denials [clean] and [trace] would answer as if the
   denials did not exist. *)
let with_binary cmd st k =
  with_instance st (fun i ->
      match i.engine with
      | _ when declares_denials i.spec ->
        Printf.sprintf
          "error: %s runs on the FD conflict graph, which ignores the instance's \
           denial constraints (under denials use: repairs, count, facts, query, \
           profile, aggregate, explain, status, stats, qtrace)"
          cmd
      | Error e -> "error: " ^ e
      | Ok eng -> k eng)

let parsed text k =
  match Query.Parser.parse text with Error e -> "error: " ^ e | Ok q -> k q

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
    ( { st with inst = Some (instance spec (build_engine spec)) },
      Printf.sprintf "loaded %s: %d tuples, %d fd(s), %d preference(s)%s" path
        (Relation.cardinality spec.IF.relation)
        (List.length spec.IF.fds)
        (List.length spec.IF.prefs)
        (match spec.IF.denials with
        | [] -> ""
        | ds -> Printf.sprintf ", %d denial(s)" (List.length ds)) )

let cmd_family st name =
  match Family.name_of_string name with
  | None ->
    ( st,
      Printf.sprintf "unknown family %S (use rep|l|s|g|c|pareto|global)" name )
  | Some f ->
    let label =
      match (st.inst, hyper_family f) with
      | Some i, Ok hf when declares_denials i.spec -> Core.Hfamily.name_to_string hf
      | _ -> Family.name_to_string f
    in
    ({ st with family = Some f }, "family: " ^ label)

let cmd_info st =
  with_instance st @@ fun i ->
  match i.engine with
  | Error e -> "error: " ^ e
  | Ok eng ->
    let spec = i.spec in
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
      (* under denials the conflicts are the hyperedges: the FD
         graph alone would call an inconsistent instance clean *)
      if declares_denials spec then begin
        let n, note = denial_count spec in
        Format.fprintf ppf "denials:  %d denial constraint(s)%s@." n note;
        match Lazy.force i.hyper with
        | Error e -> Format.fprintf ppf "hyperedges: error: %s@." e
        | Ok { h; hp; _ } ->
          Format.fprintf ppf "hyperedges: %d (%d oriented)@."
            (Graphs.Hypergraph.edge_count (Core.Hyper.hypergraph h))
            (Core.Hpriority.arc_count hp)
      end
      else
        Format.fprintf ppf "conflicts: %d (%d oriented)@."
          (List.length
             (Core.Conflict.conflict_pairs (Core.Delta.conflict eng)))
          (Core.Priority.arc_count (Core.Delta.priority eng));
      Format.fprintf ppf "BCNF:     %b"
        (Constraints.Fd.is_bcnf schema spec.IF.fds))

let cmd_repairs st limit = with_answers st (fun a -> buffer_out (a.pp_repairs ~limit))

let cmd_count st =
  with_answers st (fun a ->
      Printf.sprintf "%s: %d preferred repair(s) across %d component(s)" a.label
        (a.count ()) (a.components ()))

let cmd_facts st =
  with_answers st (fun a ->
      let certain = a.certain () and possible = a.possible () in
      buffer_out (fun ppf ->
          let show label s =
            Format.fprintf ppf "%s (%d):@." label (Graphs.Vset.cardinal s);
            Graphs.Vset.iter (fun v -> Format.fprintf ppf "  %a@." Tuple.pp (a.tuple v)) s
          in
          show "certain" certain;
          show "disputed" (Graphs.Vset.diff possible certain);
          show "excluded" (Graphs.Vset.diff (a.live ()) possible)))

let cmd_clean st =
  with_binary "clean" st (fun eng ->
      let report =
        Core.Clean.run_with_priority (Core.Delta.conflict eng) (Core.Delta.priority eng)
      in
      buffer_out (fun ppf ->
          Format.fprintf ppf "%a@." Core.Clean.pp_report report;
          Relation.iter
            (fun t -> Format.fprintf ppf "  %a@." Tuple.pp t)
            report.Core.Clean.cleaned))

let cmd_trace st =
  with_binary "trace" st (fun eng ->
      let c = Core.Delta.conflict eng in
      buffer_out (fun ppf ->
          Format.fprintf ppf "%a" (Core.Trace.pp c)
            (Core.Trace.clean c (Core.Delta.priority eng))))

(* All query routes go through the component decomposition: ground
   queries hit the clause engine, quantified ones the deviation-scan
   streaming — both exponential only in the largest component. A closed
   query gets its verdict, an open one its certain bindings. *)
let answer a q =
  if Query.Ast.is_closed q then
    Printf.sprintf "%s: %s" a.label (Core.Cqa.certainty_to_string (a.certainty q))
  else begin
    let free, rows = a.open_answers q in
    buffer_out (fun ppf ->
        Format.fprintf ppf "certain answers (%s):@." (String.concat ", " free);
        List.iter
          (fun row ->
            Format.fprintf ppf "  (%s)@."
              (String.concat ", " (List.map Value.to_string row)))
          rows;
        Format.fprintf ppf "%d certain answer(s)" (List.length rows))
  end

let cmd_query st text = with_answers st (fun a -> parsed text (answer a))

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
  with_answers st (fun a ->
      parsed text (fun q ->
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
                (fun () -> Obs.Span.with_span "profile" (fun () -> answer a q))
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
          end))

(* The planner's view of the loaded instance: the (dirty) relation as a
   one-relation database, costed with the engine's incrementally patched
   column statistics. *)
let planner_report spec eng q =
  Planner.Explain.run ~stats:(Core.Delta.stats_lookup eng)
    (Database.of_relations [ spec.IF.relation ])
    q

let plan_of st q =
  match st.inst with
  | None -> Error no_instance
  | Some { engine = Error e; _ } -> Error e
  | Some { spec; engine = Ok eng; _ } -> (
    match planner_report spec eng q with
    | report -> Ok report
    | exception Invalid_argument m -> Error m)

let planner_run st text = Result.bind (Query.Parser.parse text) (plan_of st)

let cmd_plan st text =
  with_instance st (fun _ ->
      match planner_run st text with
      | Ok report -> buffer_out (fun ppf -> Planner.Explain.pp ppf report)
      | Error e -> "error: " ^ e)

let plan_json st text = Result.map Planner.Explain.to_json (planner_run st text)

(* One planner run rendered both ways — the slow-query log wants the
   text and the JSON of the same report without executing twice. *)
let explain_report st text =
  Result.map
    (fun report ->
      ( buffer_out (fun ppf -> Planner.Explain.pp ppf report),
        Planner.Explain.to_json report ))
    (planner_run st text)

let pp_tuples ppf ts =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
    Tuple.pp ppf ts

let pp_verdict a ppf (v : Core.Sharded.verdict) =
  Format.fprintf ppf "@[<v>%s@," (Core.Cqa.certainty_to_string v.certainty);
  let witness label = function
    | None -> ()
    | Some s ->
      Format.fprintf ppf "  %s  {%a}@," label pp_tuples
        (List.map a.tuple (Graphs.Vset.elements s))
  in
  witness "holds in:" v.supporting;
  witness "fails in:" v.refuting;
  Format.fprintf ppf "@]"

(* Repair counts saturate at [max_int] rather than wrap: say so instead
   of printing a huge number that looks exact. *)
let pp_count ppf n =
  if n = max_int then Format.pp_print_string ppf ">= max_int (saturated)"
  else Format.pp_print_int ppf n

let pp_summary ppf (s : Core.Sharded.summary) =
  (* the priority orients conflicting pairs: on binary conflicts those are
     the edges *)
  let pairs = s.oriented_arcs + s.unoriented_pairs in
  Format.fprintf ppf
    "@[<v>tuples:                 %d@,\
     conflict edges:         %d (%d tuples involved)@,\
     components:             %d (%d non-trivial, largest %d)@,\
     priority:               %d/%d %s oriented%s@,\
     repairs:                %a@,\
     preferred repairs:      %a@,\
     tuple fates:            %d certain, %d disputed, %d excluded@,\
     component cache:        %d hit(s), %d miss(es), %d repair(s) cached"
    s.tuples s.conflict_edges s.conflicting_tuples s.components
    s.nontrivial_components s.largest_component s.oriented_arcs pairs
    (if pairs = s.conflict_edges then "edges" else "conflicting pairs")
    (if s.unoriented_pairs = 0 then " (total)" else "")
    pp_count s.repair_count pp_count s.preferred_count s.certain s.disputed
    s.excluded s.fate_counters.cache_hits s.fate_counters.cache_misses
    s.fate_counters.component_repairs;
  let m = s.lifetime in
  if m.deltas_applied > 0 then
    Format.fprintf ppf
      "@,\
       incremental updates:    %d delta(s); %d component(s) dirtied; \
       cache %d evicted, %d retained"
      m.deltas_applied m.components_dirtied m.cache_evicted m.cache_retained;
  Format.fprintf ppf "@]"

(* The family's size as the product of the per-component counts; past
   [max_int], its magnitude in floating point. *)
let pp_product ppf counts =
  let product = List.fold_left Core.Sharded.sat_mul 1 counts in
  if product = max_int then
    Format.fprintf ppf ">= max_int (~%.3e)"
      (List.fold_left (fun acc n -> acc *. float_of_int n) 1. counts)
  else Format.pp_print_int ppf product

let pp_qtrace a ppf (t : Core.Sharded.qtrace) =
  Format.fprintf ppf
    "@[<v>verdict:                %s (%s)@,\
     components:             %d (largest %d)@,\
     preferred repairs:      %a total, per component [%a]%s@,%a"
    (Core.Cqa.certainty_to_string t.verdict)
    a.label
    (List.length t.slot_repairs + t.free_tuples)
    t.largest pp_product t.slot_repairs
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
       Format.pp_print_int)
    t.slot_repairs
    (if t.free_tuples = 0 then ""
     else Printf.sprintf " (+ %d conflict-free tuple(s), 1 each)" t.free_tuples)
    Core.Sharded.pp_counters t.query_counters;
  (* lifetime maintenance telemetry, shown only once deltas flowed *)
  let m = t.maintenance in
  if m.deltas_applied > 0 then
    Format.fprintf ppf
      "@,\
       maintenance (lifetime): %d delta(s), +%d/-%d edge(s), %d \
       component(s) dirtied, cache %d evicted / %d retained"
      m.deltas_applied m.edges_added m.edges_removed m.components_dirtied
      m.cache_evicted m.cache_retained;
  Format.fprintf ppf "@]"

let cmd_stats st =
  with_instance st (fun i ->
      with_answers st (fun a ->
          buffer_out (fun ppf ->
              Format.fprintf ppf "%a" pp_summary (a.summary ());
              (* column statistics feed the query planner's cost model;
                 the engine's copy is patched in place by every update
                 batch, so its scan/patch counters double as the
                 invalidation log *)
              match i.engine with
              | Ok eng ->
                Format.fprintf ppf "@.%a" Planner.Stats.pp (Core.Delta.column_stats eng)
              | Error _ -> ())))

let cmd_qtrace st text =
  with_answers st (fun a ->
      parsed text (fun q ->
          if not (Query.Ast.is_closed q) then "error: qtrace requires a closed query"
          else buffer_out (fun ppf -> pp_qtrace a ppf (a.qtrace q))))

let cmd_explain st text =
  with_answers st (fun a ->
      parsed text (fun q ->
          if not (Query.Ast.is_closed q) then "error: explain requires a closed query"
          else
            match plan_of st q with
            | Error e -> "error: " ^ e
            | Ok report ->
              buffer_out (fun ppf ->
                  (* the plan every per-repair certainty check executes,
                     shown over the current instance *)
                  Format.fprintf ppf "%a@." Planner.Explain.pp_plan_only report;
                  Format.fprintf ppf "%a" (pp_verdict a) (a.explain q))))

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

let pp_tuple_status ppf (st : Core.Sharded.tuple_status) =
  let pp_tuples ppf = function
    | [] -> Format.pp_print_string ppf "(none)"
    | ts -> pp_tuples ppf ts
  in
  Format.fprintf ppf
    "@[<v>tuple %a@,  conflicts with: %a@,  dominated by:   %a@,  dominates:      \
     %a@,  status: %s@]"
    Tuple.pp st.tuple pp_tuples st.conflicts_with pp_tuples st.dominated_by
    pp_tuples st.dominates
    (if st.in_all then "kept in every preferred repair"
     else if st.in_some then "kept in some preferred repairs (disputed)"
     else "removed from every preferred repair")

let cmd_status st values =
  with_instance st (fun i ->
      with_answers st (fun a ->
          match parse_tuple i.spec values with
          | Error e -> "error: " ^ e
          | Ok t -> (
            match a.status t with
            | status -> buffer_out (fun ppf -> pp_tuple_status ppf status)
            | exception Invalid_argument m -> "error: " ^ m)))

let cmd_aggregate st spec_text =
  with_answers st (fun a ->
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
        match a.aggregate agg with
        | Error e -> "error: " ^ e
        | Ok r ->
          buffer_out (fun ppf ->
              Format.fprintf ppf "%s over %s repairs: %a"
                (Core.Aggregate.agg_to_string agg)
                a.label Core.Aggregate.pp_range r)))

let check st candidate =
  match st.inst with
  | None -> Error no_instance
  | Some i -> (
    match answers_of st i with
    | Error e -> Error e
    | Ok a -> (
      match a.check candidate with
      | ok -> Ok (a.label, ok)
      | exception Invalid_argument m -> Error m))

(* After an engine update, keep the stored spec's relation in sync so
   [save]/[info]/[prefer] see the current instance, and drop the
   hyperedge context built over the old one. *)
let sync_spec st i eng =
  let spec = { i.spec with IF.relation = Core.Delta.relation eng } in
  { st with inst = Some (instance spec i.engine) }

let cmd_update st mk values =
  match st.inst with
  | None -> (st, no_instance)
  | Some { engine = Error e; _ } -> (st, "error: " ^ e)
  | Some ({ engine = Ok eng; _ } as i) -> (
    match parse_tuple i.spec values with
    | Error e -> (st, "error: " ^ e)
    | Ok t -> (
      let ops = mk t in
      match Core.Delta.apply eng ops with
      | Error e -> (st, "error: " ^ e)
      | Ok report -> (
        match notify st (Updated ops) with
        | Ok () ->
          (sync_spec st i eng, buffer_out (fun ppf -> Core.Delta.pp_report ppf report))
        | Error e ->
          (* journaling failed: revert the batch we just applied so
             the session keeps matching what the journal replays (the
             inverse of an accepted batch always applies) *)
          ignore (Core.Delta.undo eng);
          (st, "error: not journaled (change rolled back): " ^ e))))

let cmd_insert st values = cmd_update st (fun t -> [ Core.Delta.Insert t ]) values
let cmd_delete st values = cmd_update st (fun t -> [ Core.Delta.Delete t ]) values

let cmd_undo st =
  match st.inst with
  | None -> (st, no_instance)
  | Some { engine = Error e; _ } -> (st, "error: " ^ e)
  | Some ({ engine = Ok eng; _ } as i) ->
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
          (sync_spec st i eng, buffer_out (fun ppf -> Core.Delta.pp_report ppf report))))

let cmd_prefer st body =
  match st.inst with
  | None -> (st, no_instance)
  | Some i -> (
    match IF.parse_pref body with
    | Error e -> (st, "error: " ^ e)
    | Ok pref -> (
      let spec = { i.spec with IF.prefs = i.spec.IF.prefs @ [ pref ] } in
      (* a global preference change invalidates every cached repair
         list: rebuild the engine (cold cache, fresh history) — built
         before journaling, committed only after, so a failed append
         leaves the session on the old preference set. A preference set
         that no longer induces a valid priority (on a denial spec, over
         the hyperedges as well) is rejected. *)
      let i' = instance spec (build_engine spec) in
      let valid =
        Result.bind i'.engine (fun eng ->
            if declares_denials spec then Result.map (fun _ -> eng) (Lazy.force i'.hyper)
            else Ok eng)
      in
      match valid with
      | Error e -> (st, "error: preference rejected: " ^ e)
      | Ok eng -> (
        match notify st (Preferred pref) with
        | Ok () ->
          ( { st with inst = Some i' },
            Printf.sprintf "preference added (%d conflict(s) now oriented)"
              (Core.Priority.arc_count (Core.Delta.priority eng)) )
        | Error e -> (st, "error: not journaled (preference dropped): " ^ e))))

(* --- denials and the conflict hypergraph ------------------------------------ *)

let pp_denials ppf spec =
  List.iter
    (fun dc -> Format.fprintf ppf "  %s@." (Constraints.Denial.to_string dc))
    (denials_of spec)

let cmd_denials st =
  with_instance st (fun i ->
      let n, note = denial_count i.spec in
      buffer_out (fun ppf ->
          Format.fprintf ppf "%d denial constraint(s)%s@.%a" n note pp_denials i.spec))

(* On an FD-only spec this is the one command that forces the hyperedge
   context: the hypergraph of the compiled FDs. *)
let cmd_hyper_info st =
  with_instance st (fun i ->
      match Lazy.force i.hyper with
      | Error e -> "error: " ^ e
      | Ok { h; hp; hd } ->
        let n, note = denial_count i.spec in
        buffer_out (fun ppf ->
            Format.fprintf ppf "denials:    %d%s@.%a" n note pp_denials i.spec;
            Format.fprintf ppf "facts:      %d live@."
              (Graphs.Vset.cardinal (Core.Hyper.live h));
            Format.fprintf ppf "hyperedges: %d@."
              (Graphs.Hypergraph.edge_count (Core.Hyper.hypergraph h));
            Format.fprintf ppf "oriented:   %d arc(s)@." (Core.Hpriority.arc_count hp);
            Format.fprintf ppf "components: %d (largest %d)@."
              (Core.Hdecompose.component_count hd)
              (Core.Hdecompose.max_component hd);
            Format.fprintf ppf "consistent: %b" (Core.Hyper.is_consistent h)))

let cmd_save st path =
  match st.inst with
  | None -> (st, no_instance)
  | Some i -> (
    match IF.save path i.spec with
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

(* [hyper count|repairs|query [FAM] ...] is the ordinary command under
   FAM (default rep) for this one request. *)
let cmd_hyper st rest =
  let sub, arg = split_command rest in
  match String.lowercase_ascii sub with
  | "" | "info" when arg = "" -> cmd_hyper_info st
  | ("count" | "repairs" | "query") as sub -> (
    let tok, after = split_command arg in
    let fam, arg =
      match Family.name_of_string tok with
      | Some f -> (f, after)
      | None -> (Family.Rep, arg)
    in
    let st = { st with family = Some fam } in
    match (sub, arg) with
    | "count", "" -> cmd_count st
    | "repairs", "" -> cmd_repairs st 20
    | "repairs", n -> (
      match int_of_string_opt n with
      | Some n when n >= 0 -> cmd_repairs st n
      | _ -> hyper_usage)
    | "query", q when q <> "" -> cmd_query st q
    | _ -> hyper_usage)
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
